#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Run from the repository root:

    python3 e2ebench/run.py --workload coloring-churn --seed 1 --seconds 30 --trace 0

The Go build cache, temporary files and the binary go to .bench_build/
under the current directory, so a run reads and writes nothing outside
it. The build is incremental: only the first run compiles the standard
library. A failed build exits 1 and prints no result; otherwise the exit
code and output are the benchmark's own.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 600  # the first build compiles the standard library
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "e2ebench")
    try:
        build = subprocess.run(
            ["go", "build", "-p", "2", "-o", binary, "."],
            cwd=src, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary] + sys.argv[1:], env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
