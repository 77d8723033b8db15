#!/usr/bin/env python3
"""Builds the benchmark runner from the checkout's sources, then runs it.

    python3 perfbench/run.py --workload synth-enum --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build), configured Release; build output goes to stderr.
The runner's stdout passes through unchanged: its last line is the JSON
result. Exits non-zero, printing no result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
JOBS = "4"


def build():
    configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", BUILD, "--target",
                     "perfbench_runner", "-j", JOBS]):
        if subprocess.run(command, stdout=sys.stderr, cwd=ROOT).returncode:
            return None
    return os.path.join(BUILD, "perfbench_runner")


def main():
    runner = build()
    if runner is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([runner] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
