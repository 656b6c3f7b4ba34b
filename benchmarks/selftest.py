"""Fast self-test of the benchmark at toy size.

    python3 benchmarks/selftest.py

Checks that every workload runs end to end untraced and traced, that each
prints every metric BENCHMARK.json names with its unit, that outputs match
the recorded toy digests and the traced outputs equal the untraced ones,
and that the benchmark refuses to run without the seknow sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(["--workload", workload, "--size", "toy", "--seconds", "0.3",
                "--trace", str(trace)], ROOT)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {proc.stderr.strip()[-300:]}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} != {expected}")
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ")}
    for name, unit in expected.items():
        if printed.get(name) != unit:
            problems.append(f"{where}: {name} printed as {printed.get(name)!r}, unit {unit}")
    if "fail_ratio" not in printed:
        problems.append(f"{where}: fail_ratio not printed")
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_refuses_without_sources(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_workload(spec, workload, trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
