"""One round of one workload, in a fresh interpreter: set up, run the
whole list of operations ``--passes`` times, each pass in a seeded order,
then print the timings and the outputs as one JSON line.  ``run.py``
starts it; it is not meant to be run alone.

The operations of a workload are a fixed list; the seed only shuffles
their order.  In a workload whose operations are independent, the
program's ``lru_cache``s are emptied before every operation (outside the
timed region), so an operation costs the same in every pass and in any
order, and no operation is served from a cache that an earlier one
filled.  The outputs of the first pass are serialised after the timed
phase and checked by ``run.py`` against the independent oracle; every
later pass must reproduce them.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path
from time import perf_counter_ns

from pipedreams import bvpd, construct, mvpd, pipedream
from pipedreams.permutations import Perm, symmetric_group


def _rows(d) -> list[str]:
    return d.to_json()["rows"]


def _terms(p) -> list[list[int]]:
    """[coefficient, x exponents..., y exponents...] per term."""
    return [[c, *m.x, *m.y] for m, c in p.items()]


# double-s5: both double-Grothendieck routes for every permutation of S_5.


def double_setup(n: int) -> list:
    pipedream.enumerate_all(n)
    return [(w.letters, None) for w in symmetric_group(n)]


def double_run(letters, _):
    w = Perm(letters)
    a = pipedream.double_grothendieck(w)
    b = mvpd.double_grothendieck_via_mvpd(w)
    return a, b, a == b


def double_dump(op, out) -> dict:
    a, b, same = out
    return {"w": op[0], "pd": _terms(a), "mvpd": _terms(b), "same": same}


# construct-ifw-s6: construct_up on every non-maximal marked diagram of
# every inverse fireworks permutation of S_6.


def construct_setup(n: int) -> list:
    pipedream.enumerate_all(n)
    ops = []
    for w in symmetric_group(n):
        if w.is_inverse_fireworks():
            ops.extend((w.letters, d) for d in mvpd.mvpd_set(w) if not mvpd.is_top(d, w))
    return ops


def construct_run(letters, d):
    return construct.construct_up(d, Perm(letters))


def construct_dump(op, cert) -> dict:
    return {
        "w": op[0],
        "in": _rows(op[1]),
        "out": _rows(cert.output),
        "row": cert.gained_row,
        "steps": len(cert.steps),
    }


# top-ifw-s7: the direct top-degree formula for every inverse fireworks w of S_7.


def top_setup(n: int) -> list:
    return [(w.letters, None) for w in symmetric_group(n) if w.is_inverse_fireworks()]


def top_run(letters, _):
    return bvpd.top_grothendieck_via_bvpd(Perm(letters))


def top_dump(op, out) -> dict:
    return {"w": op[0], "top": _terms(out)}


FAILED = object()  # the outcome of an operation that raised

# Each operation is a pair (one-line w, payload).
# name -> (builds the PD index, independent operations, setup, run, dump);
# run.py holds the sizes.  construct-ifw-s6 is not independent: its
# operations read the mvpd_set caches that its set-up fills.
WORKLOADS = {
    "double-s5": (True, True, double_setup, double_run, double_dump),
    "construct-ifw-s6": (True, False, construct_setup, construct_run, construct_dump),
    "top-ifw-s7": (False, True, top_setup, top_run, top_dump),
}


def lru_functions() -> dict:
    """The program's lru-cached functions, looked up before any wrapping."""
    return {
        attr: fn
        for mod in (pipedream, mvpd, bvpd)
        for attr, fn in vars(mod).items()
        if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__
    }


def peak_rss_kb() -> int:
    """This process's resident high-water mark.  ru_maxrss would also count
    the parent's memory at fork, which Linux keeps across exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_round(name: str, n: int, seed: int, passes: int, started: float, tracer, spans_path, lru,
              setup_only: bool) -> dict:
    has_index, independent, setup, run, dump = WORKLOADS[name]
    lru_counts = {attr: [0, 0] for attr in lru}

    def clear_caches():
        for attr, fn in lru.items():
            hits, misses = fn.cache_info()[:2]
            lru_counts[attr][0] += hits
            lru_counts[attr][1] += misses
            fn.cache_clear()

    def call(op):
        return run(*op)

    if tracer:
        setup = tracer.wrap("bench.setup", setup)
        call = tracer.wrap("bench.op", call)
    ops = setup(n)
    setup_s = time.monotonic() - started
    if setup_only:
        return {"setup_s": setup_s}

    rng = random.Random(seed)
    times: list[list[int]] = [[] for _ in ops]  # ns of each completed pass, per operation
    outs: list = [FAILED] * len(ops)  # the first pass's outputs
    failures: list = []
    changed: list = []
    first_wall_ns = 0
    for p in range(passes):
        order = list(range(len(ops)))
        rng.shuffle(order)
        begin = perf_counter_ns()
        for i in order:
            if independent:
                clear_caches()
            t0 = perf_counter_ns()
            try:
                out = call(ops[i])
            except Exception as exc:  # a failed operation is counted, not fatal
                failures.append([ops[i][0], f"{type(exc).__name__}: {str(exc).splitlines()[0]}"])
                continue
            times[i].append(perf_counter_ns() - t0)
            if p == 0:
                outs[i] = out
            elif out != outs[i]:
                changed.append(ops[i][0])
        if p == 0:
            first_wall_ns = perf_counter_ns() - begin
    rss_kb = peak_rss_kb()

    result = {
        "setup_s": setup_s,
        "wall_s": first_wall_ns / 1e9,  # the baseline of the tracing overhead
        "op_ns": [t for t in times if t],
        "rss_kb": rss_kb,
        "attempted": len(ops) * passes,
        "failures": failures,
        "changed": changed,
    }
    if tracer:
        result["layers"] = tracer.aggregates()
        if spans_path:
            tracer.write(spans_path)
    if has_index:
        by_perm = pipedream.enumerate_all(n).by_perm
        result["index_diagrams"] = sum(len(ds) for ds in by_perm.values())
    clear_caches()
    result["lru"] = lru_counts
    result["outputs"] = [dump(op, out) for op, out in zip(ops, outs) if out is not FAILED]
    return result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1, help="times the whole list of operations is run")
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, help="where a traced round writes its spans")
    ap.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    args = ap.parse_args()
    lru = lru_functions()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    result = run_round(args.workload, args.n, args.seed, args.passes, args.started, tracer, args.spans,
                       lru, args.setup_only)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
