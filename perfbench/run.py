#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/CMakeLists.txt (which compiles the library sources
under src/ and the shard-worker CLI) into the build directory named by
CARGO_TARGET_DIR (default .bench_build), builds incrementally, then runs
the benchmark driver for one workload. The driver's output is passed
through; its last line is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics; the names are checked against BENCHMARK.json when it is present.

Exits non-zero without printing a result when the build fails (for
example in a tree holding only the benchmark, without src/), when the
driver fails or times out, or when the metric names do not match.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_rw", "cluster_read", "join_batch", "paper_sim")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_driver"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_driver")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def reap_group(pgid):
    """Kills whatever is left of the driver's process group (shard
    workers of a driver that died) and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    driver = build(build_dir)

    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--trace-dir", os.path.join(build_dir, "traces")]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.communicate()
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    reap_group(proc.pid)

    lines = out.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1] if lines else ""
    sys.stdout.write("\n".join(body) + "\n")
    try:
        result = json.loads(last)
    except ValueError:
        fail("driver exited %d without a result" % proc.returncode)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    expected = expected_metrics(args.trace == "1")
    if expected is not None and list(result["metrics"]) != expected:
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(expected)))
    print(last)
    sys.stdout.flush()
    # A failed correctness gate is reported (correct: false) and also
    # turns the exit code non-zero.
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
