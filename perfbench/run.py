#!/usr/bin/env python3
"""Build the verifier benchmark from source, then run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: lint-registry, stab-sweep, pdl-corpus, serve-mixed (see
BENCHMARK.json).  The last line of standard output is the result object;
progress and the per-class tables go to standard error.  Exits non-zero,
without a result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    rel = os.path.relpath(here, root)
    target = "./" + rel + "/main.exe"
    try:
        build = subprocess.run(
            dune_command() + ["build", "--root", ".", target],
            cwd=root,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build timed out")
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(root, "_build", "default", rel, "main.exe")
    # One malloc arena: with glibc's arena per thread, which arenas the
    # worker domains' freed memory was left in depended on thread
    # scheduling, and serve-mixed's peak RSS spread 17% over five seeds
    # (6% with one arena).
    try:
        run = subprocess.run(
            [exe, *sys.argv[1:], "--specs", os.path.join(rel, "specs")],
            cwd=root,
            env=dict(os.environ, MALLOC_ARENA_MAX="1"),
            timeout=RUN_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
