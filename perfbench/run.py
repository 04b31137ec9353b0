#!/usr/bin/env python3
"""Repository benchmark: build the perfbench runner from source, run one
workload, and print its report ending in one JSON line.

Usage (from the repository root):
  python3 perfbench/run.py --workload paper_single --seed 0 --seconds 20 --trace 0

The runner is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use. --trace 1 also writes the Chrome
trace of the traced half to <build dir>/traces/<workload>-seed<N>.json.
See perfbench/README.md for the workloads and metrics.

Exit status: 0 when every output checked out; 1 when the runner found a
wrong output or failed; 2 when the program could not be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper_single", "palette_k32", "batch_small", "serve_open")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(source_dir, build_dir):
    """Configures once, then builds the runner; build output goes to
    stderr only when a step fails."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "perfbench_runner"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")


def declared_metrics(root, trace):
    """Metric names BENCHMARK.json declares for this mode, in order, or
    None when the file is absent."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(source_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no seghdc sources next to {source_dir}")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    build(source_dir, build_dir)

    command = [os.path.join(build_dir, "perfbench_runner"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail(f"runner did not finish: {error}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail(f"runner exited {done.returncode} without a result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("runner result line has unexpected keys")
    expected = declared_metrics(root, args.trace)
    if expected is not None and list(result["metrics"]) != expected:
        fail("runner metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(expected))}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    if done.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
