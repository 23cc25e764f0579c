#!/usr/bin/env python3
"""Build and run the repository benchmark (README.md in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload static_ftgcr --seed 1 --seconds 20 --trace 0

The first call configures and builds the library and the gcube_bench benchmark
under the build directory (CARGO_TARGET_DIR when set, else .bench_build);
later calls rebuild only what changed. gcube_bench's output is passed
through: one line per metric, then a one-line JSON summary. The exit status
is gcube_bench's (1 when a correctness check failed), or 2 when the build
fails, for instance in a directory that holds the benchmark but no sources.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(root):
    """Configures (once) and builds gcube_bench; returns its path or None."""
    cmake_dir = os.path.join(root, "cmake")
    tmp = os.path.join(root, "tmp")  # compiler and LTO temporaries stay here
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "gcube_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return None
    return os.path.join(cmake_dir, "gcube_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="shrink every workload (self-test only)")
    args = ap.parse_args()

    root = build_dir()
    binary = build(root)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(root, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.quick:
        cmd.append("--quick")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
