#!/usr/bin/env python3
"""Builds fleetbench from the repository's sources and runs one workload.

    python3 fleetbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The first call configures and compiles
into .bench_build/fleetbench (Release); later calls only rebuild what
changed.  Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  The exit code is non-zero when the build fails,
a correctness gate fails or the run exceeds its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fleetbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "store.h")):
        sys.exit("fleetbench: no Carousel sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "fleetbench", "-j",
         str(min(4, os.cpu_count() or 1))],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "fleetbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("fleetbench: build failed: %s" % e)

    work = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work,
           "--out-dir", os.path.join(ROOT, ".bench_build", "traces")]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed and reaped the child.
        print("fleetbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
