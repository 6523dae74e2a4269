#!/usr/bin/env python3
"""End-to-end PyTFHE benchmark: builds the binary from source, runs one
workload, checks its outputs and prints one JSON result line last.

Run from the repository root:

    python3 perfbench/run.py --workload fig1_tfhe128 --seed 1 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics and writes a Chrome trace-event JSON file (open it in Perfetto or
chrome://tracing) under <build dir>/traces/. The build directory is
$CARGO_TARGET_DIR when set, else .bench_build. The exit status is 0 only
when every job's output matched the plaintext reference.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig1_tfhe128", "serve_toy", "compile_mnist_s")
# A run must end within 180 s; the binary gets most of that.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no library sources under {os.path.join(ROOT, 'src')}")
        return None
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", out, "--target", "pytfhe_e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "pytfhe_e2e")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_trace(path):
    """The traced run must leave a loadable trace-event file."""
    with open(path) as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    if not events:
        raise ValueError("trace has no events")
    for e in events:
        if e.get("ph") != "X" or "ts" not in e or "dur" not in e:
            raise ValueError(f"malformed trace event {e}")
    if "cpu_model" not in trace.get("otherData", {}):
        raise ValueError("trace lacks the host fingerprint")
    return len(events)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-flip", type=int, default=-1,
                   help="flip one output bit of job N (checker self-test)")
    a = p.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        log("build failed")
        return 2

    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    workdir = os.path.join(out, "work", f"{tag}-{os.getpid()}")
    trace_out = os.path.join(out, "traces", f"{a.workload}-seed{a.seed}.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--workdir", workdir, "--trace-out", trace_out,
           "--inject-flip", str(a.inject_flip)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark binary printed nothing (exit {proc.returncode})")
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"benchmark binary printed no result "
            f"(exit {proc.returncode})")
        return proc.returncode or 1
    code = proc.returncode

    want = expected_metrics(a.trace == 1)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        log("metric names differ from BENCHMARK.json: "
            f"{sorted(set(want) ^ set(result['metrics']))}")
        code = code or 1
    if a.trace == 1:
        try:
            log(f"trace: {check_trace(trace_out)} events in {trace_out}")
        except (OSError, ValueError) as e:
            log(f"trace check failed: {e}")
            code = code or 1

    host = json.loads(lines[0].split(" ", 1)[1]) if lines[0].startswith(
        "host ") else {}
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    with open(os.path.join(out, "results", f"{tag}.json"), "w") as f:
        json.dump({"host": host, "wall_s": time.monotonic() - start,
                   "result": result}, f, indent=1)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
