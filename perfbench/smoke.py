"""Seconds-long smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload named in BENCHMARK.json at toy size, untraced and
traced, and checks the result line against BENCHMARK.json: its keys, the
metric names and units, and that every operation passed.  It also checks
that the benchmark refuses to run, without printing a result, in a directory
that holds the benchmark but not the program.  There is no timing bound.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, expected):
    """Problems with one run's output, as a list of strings."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append(f"correct is {result['correct']!r}: {proc.stderr[-500:]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    if result["failed"] != 0:
        problems.append(f"failed {result['failed']!r}")
    units = {name: m.get("unit") for name, m in result["metrics"].items()}
    if units != expected:
        missing = sorted(set(expected) - set(units))
        extra = sorted(set(units) - set(expected))
        wrong = sorted(n for n in set(units) & set(expected) if units[n] != expected[n])
        problems.append(f"metrics differ: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r}")
    return problems


def check_refuses_without_program(workload):
    """A directory with only BENCHMARK.json and perfbench/ must fail cleanly."""
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, workload, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return ["exited 0 without the program"]
    if '"correct"' in proc.stdout:
        return ["printed a result without the program"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            problems = check_result(run(ROOT, workload, trace), expected)
            print(f"{workload:14s} trace {trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
    problems = check_refuses_without_program(spec["workloads"][0]["name"])
    print(f"{'no program':14s}        : {'ok' if not problems else 'FAIL'}")
    for p in problems:
        print(f"  {p}")
    failures += bool(problems)
    print("smoke: " + ("all checks pass" if not failures else f"{failures} failing"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
