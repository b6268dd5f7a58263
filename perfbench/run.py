#!/usr/bin/env python3
"""Build the benchmark from source in this checkout and run it.

    python3 perfbench/run.py --workload fig9-dense --seed 1 --seconds 15 --trace 0

Every argument is passed to the benchmark binary (see main.go). The binary
and the Go build cache live under .bench_build at the checkout root, so the
benchmark reads and writes nothing outside the checkout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        # The go command keeps telemetry counters under the user's config
        # directory; point it into the checkout too.
        HOME=os.path.join(BUILD, "home"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "home", ".config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE, env=go_env(), stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if not any(a == "--spans" or a.startswith("--spans=") for a in args):
        args += ["--spans", os.path.join(BUILD, "spans")]
    try:
        return subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
