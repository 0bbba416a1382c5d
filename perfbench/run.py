#!/usr/bin/env python3
"""Builds and runs the repository benchmark (bw_perfbench).

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository. The first call configures and
builds the library and the benchmark from source with CMake into
`.bench_build/` at the checkout root; later calls only rebuild what
changed. Build output goes to stderr. The script then replaces itself with
the benchmark process (exec), so the last stdout line is the benchmark's
JSON result, the exit code is the benchmark's (0 only when every output
check passed), and a signal sent to this process reaches the benchmark.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-mixed", "catalog-wide", "fleet-churn")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"{ROOT} is not a repository checkout (no CMakeLists.txt or src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "bw_perfbench", "-j", jobs],
        check=True,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return os.path.join(build_dir, "bw_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    try:
        binary = build(os.path.join(ROOT, ".bench_build"))
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, command)


if __name__ == "__main__":
    main()
