#!/usr/bin/env python3
"""Build the perfbench command from source and run one workload.

    python3 perfbench/run.py --workload flow_sdp --seed 1 --seconds 20 --trace 0

The Go toolchain's caches, the binary and the run's scratch files all live
under .bench_build/ at the repository root, so nothing is read or written
outside the checkout. Arguments are passed to the binary unchanged; its
last line of standard output is the result (see README.md). The exit code
is the binary's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main() -> int:
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        CGO_ENABLED="0",
    )
    exe = os.path.join(BUILD, "perfbench")
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", exe, "."], cwd=HERE, env=env, stdout=sys.stderr
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run(
        [exe, *sys.argv[1:], "-workdir", os.path.join(BUILD, "run")], cwd=ROOT
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
