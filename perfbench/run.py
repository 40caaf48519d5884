#!/usr/bin/env python3
"""Build the Download benchmark from source, then run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sim-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Every argument is passed to the benchmark executable (perfbench.ml). The
build uses dune with its shared cache disabled and the compiler's temporary
files kept under .bench_build/, so nothing is written outside the checkout.
The exit code is the benchmark's: non-zero when the build fails or any
Download fails verification.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=scratch,
               XDG_CACHE_HOME=os.path.join(ROOT, ".bench_build", "cache"))
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", TARGET],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
