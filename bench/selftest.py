"""Fast self-test of the benchmark itself (about a minute).

    python3 bench/selftest.py

* the oracle's self-checks against closed forms;
* every workload through ``run.py`` at tiny n, untraced and traced: the
  outputs pass their checks and the printed metrics are exactly the ones
  ``BENCHMARK.json`` names;
* the checks reject a corrupted output of every workload;
* without the program's sources, ``run.py`` fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import oracle
import run


def _run(cwd, workload: str, n: int, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--n", str(n), "--seed", "7",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _corrupt(workload: str, o: dict, n: int) -> None:
    if workload == "construct-ifw-s6":
        o["row"] = o["row"] % n + 1
    else:
        key = {"double-s5": "pd", "top-ifw-s7": "top"}[workload]
        o[key][0][0] += 1


def main() -> int:
    failures = oracle.self_check()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    if sorted(run.WORKLOADS) != sorted(w["name"] for w in spec["workloads"]):
        failures.append("BENCHMARK.json and run.py name different workloads")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = _run(run.ROOT, workload, 4, trace)
            if proc.returncode != 0:
                failures.append(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{workload} trace={trace}: {proc.stdout.splitlines()[-1][:200]}")
            if set(result["metrics"]) != names[trace]:
                failures.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ names[trace])}")

        r, _ = run.spawn(workload, 3, 7, False, 120, None)
        check = run.Checker(workload, 3)
        if check(r):
            failures.append(f"{workload}: n=3 outputs fail their checks: {check(r)[:3]}")
        _corrupt(workload, r["outputs"][0], 3)
        if not check(r):
            failures.append(f"{workload}: a corrupted output passed the checks")

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, f"{bare}/bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, "top-ifw-s7", 4, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("without the sources, run.py still printed a result or exited 0")

    for line in failures:
        print(line)
    print("bench self-test:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
