#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

usage: python3 perfbench/run.py --workload <serve_city|serve_sensors3d|durable_ingest>
                                --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Cargo builds into $CARGO_TARGET_DIR
(default: .bench_build at the checkout root); the run's scratch files
and traces go to .perfbench/. The last line of standard output is the
JSON result; build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, cwd=ROOT)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([os.path.join(target, "release", "perfbench")] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
