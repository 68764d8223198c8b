#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <solve|serve-edit|serve-grow> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (`perfbench/Cargo.toml`) that
depends on the repository's crates by path. It is built in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), then run with the given
arguments. Spans of traced runs and the snapshot files of `serve-grow` go
to `<target dir>/perfbench-run`. The last line of standard output is the
benchmark's JSON result; build output and the human-readable report go to
standard error. Exits non-zero, without a result, if the build or the run
fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for at most 60 s, plus set-up and reference checks.
RUN_TIMEOUT_S = 170


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench-run")
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--out-dir", out_dir],
            env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the benchmark and waited for it.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: run failed with code {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.buffer.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
