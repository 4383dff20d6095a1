#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_locaware --seed 42 --seconds 15 --trace 0

Each call configures and builds perfbench/ (the simulator sources in src/
plus the benchmark program) into .bench_build/ with CMake; after the first
call the build is incremental. Build output goes to stderr. The program's report goes
to stdout, and its last line is the result JSON object. The exit status is
the program's (0 when every output check held), or 1 when the build fails.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "locaware_perfbench")


def build():
    """Configures and builds the benchmark program; False when either step fails."""
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "locaware_perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def commit():
    """The checkout's git commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", args.trace,
                           "--commit", commit(), "--work-dir", BUILD]).returncode


if __name__ == "__main__":
    sys.exit(main())
