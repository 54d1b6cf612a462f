"""Benchmark of the pipedreams library: one workload, one JSON result line.

    python3 bench/run.py --workload top-ifw-s7 --seed 1 --seconds 5 --trace 0

A run is a sequence of rounds.  Each round is a fresh interpreter
(``round.py``) with the hash seed pinned, which sets up the workload and
then performs its whole fixed list of operations the workload's number of
passes (``WORKLOADS``), each pass in an order shuffled by ``--seed``.  A
run makes one full round, and more while their total time is under
``--seconds``; then rounds that stop after their set-up add set-up
samples.  Every round's outputs are checked here against the independent
oracle (``oracle.py``), outside any timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced round and then traced rounds, and prints the per-layer metrics
(spans from ``spans.py``) with the tracing overhead; it also writes the
spans to ``bench/out/``.  The last line of standard output is always the
JSON result; the exit code is 1 when an output check failed and 2 when the
program could not be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Tile and Kind are enums: their hashes, and so set and dict iteration
# order inside the program, follow the string hash seed.
HASH_SEED = "0"
# A run must end within 180 s; no round is started that would overrun this.
BUDGET_S = 165.0
# name -> (n, passes per round, set-ups per run).
# The speed of a shared machine swings by tens of per cent from second to
# second and from minute to minute with other tenants' load, so a timing
# says how busy the machine was as much as how fast the program is.  The
# timings therefore pool every operation of every pass of a round: a round
# of double-s5 or top-ifw-s7 times its whole list of operations in several
# passes, about 10 s each, so that each timing averages over 25-40 s of
# the machine's states.  (Each operation's fastest pass would be the
# classic choice, but on this kind of machine it follows the rare fast
# moments and spread two to three times as much from run to run.)  The
# 14,607 alike operations of construct-ifw-s6 average over 20 s within one
# pass, and a second pass would not fit the run's time.  setup_s is the
# median of several set-ups per run; rounds that stop after their set-up
# make up the number.  A ~0.2 s set-up (interpreter start and import)
# jitters most and costs least, so those take nine; construct-ifw-s6
# takes two, as each of its set-ups costs ~10 s.
WORKLOADS = {
    "double-s5": (5, 3, 9),
    "construct-ifw-s6": (6, 1, 2),
    "top-ifw-s7": (7, 3, 9),
}

# Per-layer metrics: functions reported as calls, inclusive s and self s.
TRACED = (
    "pipedream.enumerate_all",
    "pipedream.cross_cells",
    "pipedream.double_grothendieck",
    "diagrams.trace",
    "diagrams.TraceResult.pipe_at",
    "diagrams.validate",
    "diagrams.enumerate_structures",
    "polynomials.Poly.__mul__",
    "polynomials.Poly.__add__",
    "polynomials.weight_factor_product",
    "mvpd.pd_to_mvpd",
    "mvpd.mvpd_set",
    "mvpd.find_upgrade",
    "mvpd.is_member",
    "mvpd.is_top",
    "bvpd.enumerate_bvpd",
    "construct.construct_up",
    "construct.droop_prime",
)
LRU = ("double_grothendieck", "mvpd_set", "enumerate_bvpd")


# ---------------------------------------------------------------- checks


def _single(terms, n: int) -> dict:
    """x exponents -> coefficient; a stray y exponent keeps the term unequal to any oracle term."""
    return {tuple(t[1 : n + 1] if not any(t[n + 1 :]) else t[1:]): t[0] for t in terms}


def _double(terms) -> dict:
    return {tuple(t[1:]): t[0] for t in terms}


def _inverse(w: tuple) -> tuple:
    inv = [0] * len(w)
    for i, v in enumerate(w, 1):
        inv[v - 1] = i
    return tuple(inv)


def _is_inverse_fireworks(w: tuple) -> bool:
    u = _inverse(w)
    firsts = [v for k, v in enumerate(u) if k == 0 or u[k - 1] < v]
    return all(a < b for a, b in zip(firsts, firsts[1:]))


def _maj(w: tuple) -> int:
    return sum(i for i in range(1, len(w)) if w[i - 1] > w[i])


def _mvpd_weight(rows: list[str], n: int) -> tuple:
    """x exponents of a marked diagram: horizontals, crosses and marked elbows per row."""
    return tuple(sum(row.count(g) for g in "-+R") for row in rows) + (0,) * (n - len(rows))


def _covers(ws, want, problems, what) -> None:
    if sorted(ws) != sorted(want):
        problems.append(f"{what}: the operations do not cover the expected permutations")


class Checker:
    """Checks one workload's outputs; the oracle is built once per run."""

    def __init__(self, workload: str, n: int):
        self.n = n
        self.single = oracle.Grothendieck(n)
        self.double = oracle.Grothendieck(n, double=True) if workload == "double-s5" else None
        self.perms = list(permutations(range(1, n + 1)))
        self.ifw = {w for w in self.perms if _is_inverse_fireworks(w)}
        self._check = {
            "double-s5": self.double_routes,
            "construct-ifw-s6": self.construct,
            "top-ifw-s7": self.top,
        }[workload]

    def __call__(self, r: dict) -> list[str]:
        return self._check(r["outputs"], r)

    def double_routes(self, outputs, r) -> list[str]:
        problems = []
        for o in outputs:
            w = tuple(o["w"])
            want = self.double(w)
            if _double(o["pd"]) != want or _double(o["mvpd"]) != want or o["same"] is not True:
                problems.append(f"{w}: a double Grothendieck route differs from the oracle")
        _covers([tuple(o["w"]) for o in outputs] + _failed(r), self.perms, problems, "double")
        return problems

    def construct(self, outputs, r) -> list[str]:
        problems = []
        for o in outputs:
            w = tuple(o["w"])
            support = self.single(w)
            before = _mvpd_weight(o["in"], self.n)
            after = _mvpd_weight(o["out"], self.n)
            row = o["row"]
            raised = before[: row - 1] + (before[row - 1] + 1,) + before[row:] if 1 <= row <= self.n else None
            if w not in self.ifw:
                problems.append(f"{w}: not inverse fireworks")
            elif before not in support:
                problems.append(f"{w}: input weight {before} is not in the oracle's support")
            elif after != raised:
                problems.append(f"{w}: output weight {after} is not the input's times x{row}")
            elif after not in support:
                problems.append(f"{w}: output weight {after} is not in the oracle's support")
        return problems

    def top(self, outputs, r) -> list[str]:
        problems = []
        for o in outputs:
            w = tuple(o["w"])
            got = _single(o["top"], self.n)
            if got != oracle.signed_top(self.single(w), w):
                problems.append(f"{w}: top formula differs from the oracle's signed top component")
            if any(sum(m) != _maj(_inverse(w)) for m in got):
                problems.append(f"{w}: top formula is not homogeneous of degree maj(w^-1)")
        _covers([tuple(o["w"]) for o in outputs] + _failed(r), self.ifw, problems, "top")
        return problems


def _failed(r: dict) -> list[tuple]:
    return [tuple(w) for w, _ in r["failures"]]


def _terms_out(outputs) -> int:
    return sum(len(o[k]) for o in outputs for k in ("top", "pd", "mvpd") if k in o)


# ---------------------------------------------------------------- rounds


def spawn(workload: str, n: int, seed: int, trace: bool, timeout: float, spans: Path | None = None,
          setup_only: bool = False, passes: int = 1):
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    started = time.monotonic()
    cmd = [sys.executable, str(BENCH / "round.py"), "--workload", workload, "--n", str(n),
           "--seed", str(seed), "--passes", str(passes), "--trace", str(int(trace)),
           "--started", repr(started)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    elapsed = time.monotonic() - started
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"round of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1]), elapsed


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    """Timings over every completed operation of every pass of a round, as
    medians over the run's rounds; memory and set-up as medians too."""
    per_round = []
    for r in rounds:
        op_ms = [t / 1e6 for times in r["op_ns"] for t in times]
        per_round.append((
            len(op_ms) / sum(op_ms) * 1e3,
            statistics.median(op_ms),
            statistics.quantiles(op_ms, n=10)[8],
        ))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(p[0] for p in per_round), "1/s"),
        "op_p50_ms": (statistics.median(p[1] for p in per_round), "ms"),
        "op_p90_ms": (statistics.median(p[2] for p in per_round), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] / 1024 for r in rounds), "MB"),
    }


def per_layer(r: dict, overhead: float) -> dict:
    layers = r["layers"]
    spans = layers["spans"]
    out = {}
    for name in TRACED:
        s = spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.s"] = (s["s"], "s")
        out[f"{name}.self_s"] = (s["self_s"], "s")
    tr = spans.get("diagrams.trace", {"calls": 0})
    out["diagrams.trace.us_per_call"] = (tr["s"] / tr["calls"] * 1e6 if tr["calls"] else 0.0, "us")
    yields = layers["yields"]
    out["diagrams.enumerate_structures.yielded"] = (
        sum(c for g, _, c in yields if g == "diagrams.enumerate_structures"), "count")
    tried = sum(c for g, p, c in yields if g == "diagrams.enumerate_structures" and p == "bvpd.enumerate_bvpd")
    accepted = spans.get("bvpd.enumerate_bvpd", {}).get("fresh_items", 0)
    out["bvpd.accept_ratio"] = (accepted / tried if tried else 0.0, "ratio")
    out["pipedream.index.diagrams"] = (r.get("index_diagrams", 0), "count")
    out["polynomials.terms_out"] = (r["terms_out"], "count")
    out["construct.steps"] = (r["steps"], "count")
    out["gc.gen2.count"] = (layers["gc_gen2_count"], "count")
    out["gc.gen2.ms"] = (layers["gc_gen2_s"] * 1e3, "ms")
    for fn in LRU:
        hits, misses = r["lru"].get(fn, (0, 0))
        out[f"lru.{fn}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["tracing.overhead"] = (overhead, "ratio")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, help="override the workload's size (the self-test uses tiny n)")
    args = ap.parse_args()
    if not (SRC / "pipedreams" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'pipedreams'})", file=sys.stderr)
        return 2
    size, passes, setup_count = WORKLOADS[args.workload]
    n = args.n or size
    deadline = time.monotonic() + BUDGET_S
    check = Checker(args.workload, n)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    plain: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    failures: dict[str, int] = {}
    measured = 0.0
    attempted = failed = 0
    try:
        while True:
            trace = bool(args.trace and plain)
            spans = OUT / f"spans-{tag}.json.gz" if trace and not traced else None
            # A traced run makes one pass per round: its per-layer figures
            # describe one pass, and its untraced round is only the baseline
            # of the tracing overhead.
            r, elapsed = spawn(args.workload, n, args.seed, trace, deadline - time.monotonic(), spans,
                               passes=1 if args.trace else passes)
            measured += elapsed
            attempted += r["attempted"]
            failed += len(r["failures"])
            for w, msg in r["failures"]:
                key = f"w={','.join(map(str, w))}: {msg}"
                failures[key] = failures.get(key, 0) + 1
            problems += check(r)
            problems += [f"{tuple(w)}: a later pass gave another output than the first" for w in r["changed"]]
            outputs = r.pop("outputs")
            r["terms_out"] = _terms_out(outputs)
            r["steps"] = sum(o.get("steps", 0) for o in outputs)
            (traced if trace else plain).append(r)
            if measured >= args.seconds and (traced if args.trace else plain):
                break
            if time.monotonic() + elapsed * 1.5 > deadline:
                if args.trace and not traced:
                    raise RuntimeError("no time left for a traced round")
                break
        setups = [r["setup_s"] for r in plain]
        while not args.trace and len(setups) < setup_count:
            r, _ = spawn(args.workload, n, args.seed, False, deadline - time.monotonic(), setup_only=True)
            setups.append(r["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for line, count in failures.items():
        print(f"failed operation ({count}x) {line}", file=sys.stderr)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    if args.trace:
        overhead = statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in plain)
        layer_runs = [per_layer(r, overhead) for r in traced]
        metrics = {
            k: {"value": statistics.median(m[k][0] for m in layer_runs), "unit": layer_runs[0][k][1]}
            for k in layer_runs[0]
        }
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(plain, setups).items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"{args.workload}: {len(plain) + len(traced)} rounds in {measured:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
