#!/usr/bin/env python3
"""Build and run the repository benchmark.

From the root of the repository:

    python3 perfbench/run.py --workload sim-pulse-alg3 --seed 3 --seconds 20 --trace 0

The script builds the Go harness in perfbench/_harness, a module of its
own that imports the repository's engines, into .bench_build/perfbench/.
The Go build cache and module cache live there too, so a run writes
nothing outside the checkout. It then replaces itself with the harness,
which measures the workload and prints the metrics; the last line of its
output is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sim-batch-1m", "sim-pulse-alg3", "check-alg3", "live-alg2")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    harness = os.path.join(root, "perfbench", "_harness")
    build = os.path.join(root, ".bench_build", "perfbench")
    binary = os.path.join(build, "perfbench")

    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    for var in ("GOFLAGS", "GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS", "GOWORK"):
        env.pop(var, None)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    os.makedirs(build, exist_ok=True)
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=harness, env=env)
    if built.returncode != 0:
        print("perfbench: building the harness failed", file=sys.stderr)
        return 1

    argv = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", repr(args.seconds),
        "-trace", str(args.trace),
        "-trace-dir", os.path.join(build, "traces"),
    ]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(binary, argv, env)
    return 1  # not reached: execve replaces this process


if __name__ == "__main__":
    sys.exit(main())
