"""The benchmark's toy-size self-test runs clean against the current sources.

``benchmarks/tracer.py`` patches ``seknow`` module attributes by name, so a
refactor that drops one of them breaks traced benchmark runs; the self-test
runs every workload traced and untraced and checks the toy output digests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, "benchmarks/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip().endswith("selftest passed")
