#!/usr/bin/env python3
"""Build the exchange-ledger benchmark from source and run one workload.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload <read_single|batch64|quorum3|write_mix> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is a Cargo package of its own (perfbench/ledger)
built in release mode into $CARGO_TARGET_DIR (default: .bench_build in
the current directory). Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Result records and traces are
written under <target dir>/perfbench; the deep-history workload's segment
files live in a per-run directory under <target dir>/perfbench-tmp that
is removed when the run ends. The exit code is the benchmark's: non-zero
on a failed build, a bad argument, or any wrong payload.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "ledger", "Cargo.toml")
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    scratch = os.path.join(target, "perfbench-tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    env["TMPDIR"] = scratch
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--out-dir", os.path.join(target, "perfbench")],
            env=env,
        )
        return run.returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
