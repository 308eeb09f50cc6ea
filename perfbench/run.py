#!/usr/bin/env python3
"""Build and run the parclust benchmark.

    python3 perfbench/run.py --workload <batch|serve-assign|serve-mutate|all>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a cargo package of its own
(perfbench/Cargo.toml) that depends on the repository's crates by path; it
is built in release mode into $CARGO_TARGET_DIR (default .bench_build),
then run with the same arguments. Build output goes to stderr, so standard
output holds only the benchmark's table and, as its last line, the JSON
result. Exits non-zero, without a result, when the build or the run fails.
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
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", "perfbench"],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--out-dir", os.path.join(target, "perfbench-out")]
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
