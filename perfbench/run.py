#!/usr/bin/env python3
"""Build the Griffin benchmark harness from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig12-sweep --seed 1 --seconds 30 --trace 0

The harness (perfbench/harness.cc) is built with CMake into
.bench_build/perfbench, together with the simulator library from src/.
Build output goes to stderr; the harness prints its metrics on stdout,
the last line being one JSON object. The exit code is the harness's:
0 when every simulation matched perfbench/expected.txt, non-zero
otherwise or when the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("fig12-sweep", "fir-paper", "telemetry")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("error: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build", "perfbench")
    out_dir = os.path.join(build, "out")
    os.makedirs(out_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j4",
                  "--target", "perfbench_harness"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("error: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 2

    sys.stdout.flush()
    return subprocess.run([
        os.path.join(build, "perfbench_harness"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%d" % args.seconds,
        "--trace=%d" % args.trace,
        "--out=" + out_dir,
        "--expected=" + os.path.join(here, "expected.txt"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
