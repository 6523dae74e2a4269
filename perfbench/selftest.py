#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark's checker and output contract.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/selftest.py

1. A short serve_toy run prints the contract line: correct, attempted,
   failed and every end-to-end metric of BENCHMARK.json, and exits 0.
2. The same run with one output bit flipped (--inject-flip) must exit
   non-zero and report the job as failed: a wrong output is never
   measured as a success.
3. A short traced run emits every per-layer metric and a loadable
   Chrome trace-event file.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", "serve_toy", "--seed", "3", "--seconds", "2",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return sorted(m["name"] for m in json.load(f)[kind])


def main():
    failures = []

    code, result = run("--trace", "0")
    if code != 0 or not result or not result["correct"] or result["failed"]:
        failures.append(f"clean run: exit {code}, result {result}")
    elif sorted(result["metrics"]) != names("end_to_end"):
        failures.append("clean run: end-to-end metric names differ")
    elif any(m["value"] <= 0 for m in result["metrics"].values()):
        failures.append(f"clean run: a zero end-to-end metric: {result}")

    code, result = run("--trace", "0", "--inject-flip", "5")
    if code == 0 or not result or result["correct"] or result["failed"] < 1:
        failures.append(f"flipped bit not reported: exit {code}, {result}")

    code, result = run("--trace", "1")
    if code != 0 or not result or not result["correct"]:
        failures.append(f"traced run: exit {code}, result {result}")
    elif sorted(result["metrics"]) != names("per_layer"):
        failures.append("traced run: per-layer metric names differ")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
