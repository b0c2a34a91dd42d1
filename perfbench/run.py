#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The executable is built with dune into .bench_build/ (the dune cache is
disabled, so nothing is written outside the checkout), then run with the
same arguments.  Its standard output passes through unchanged; the last
line is the JSON result.  Build output goes to standard error.  The exit
code is the executable's, or non-zero when the tree cannot be built.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "perfbench/perfbench.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the repository root; no dune-project or lib/ here\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--display", "quiet", "./" + TARGET],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    return subprocess.run([os.path.join(BUILD_DIR, "default", TARGET)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
