#!/usr/bin/env python3
"""Builds the benchmark and the `gcatch-suite` binary, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload flat_check --seed 1 --seconds 20 --trace 0

The last line of standard output is the run's JSON result. Build output goes
to standard error. Everything is built into $CARGO_TARGET_DIR (default
`.bench_build`), and the run writes its scratch files below it.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def build(target_dir, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    result = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target_dir, "--bin", "perfbench")
    # The serve workload runs the real CLI as its daemon.
    build(target_dir, "-p", "gcatch-suite", "--bin", "gcatch-suite")
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--gcatch", os.path.join(release, "gcatch-suite"),
           "--work-dir", os.path.join(target_dir, "perfbench-work")]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
