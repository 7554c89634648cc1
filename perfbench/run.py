#!/usr/bin/env python3
"""Builds commroute's end-to-end benchmark from source and runs one workload.

Run from the root of a commroute checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library (src/) and the perfbench binary are built in Release into
.bench_build/perfbench/ (an up-to-date build is a no-op). The binary's
last line of stdout is the result object; see perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("explore-badgadget", "converge-400", "sweep-small")


def build():
    """Configures (once) and builds; returns 0 or the failing exit code."""
    env = dict(os.environ)
    # Compiler temporaries stay inside the checkout, and the git describe
    # the library stamps into its artifacts never searches above it.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "2"])
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            return done.returncode
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no commroute sources (src/) beside perfbench/",
              file=sys.stderr)
        return 2
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    sys.stdout.flush()
    return subprocess.run([
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
