import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # The benchmark's own tiny-n smoke test: every workload runs, its outputs
    # pass the oracle's checks and it prints the metrics BENCHMARK.json names.
    # It also imports the program names the benchmark calls.
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
