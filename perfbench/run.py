#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) that links
the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build). Every argument is passed on to
the benchmark binary, whose last line of output is the result JSON. Exits
non-zero without a result if the build fails, for example when the
repository's crates are not there.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, check=False)
    version = rustc.stdout.strip() or "unknown"
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--rustc", version], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
