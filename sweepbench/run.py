#!/usr/bin/env python3
"""Builds the benchmark and the mg-serve daemon from source, then runs it.

Run from the root of a checkout:

    python3 sweepbench/run.py --workload fig1-sweep --seed 0 --seconds 35 --trace 0

Both builds go to $CARGO_TARGET_DIR (default: .bench_build in the
checkout). Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero, printing no result, when
the program's sources are not next to this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(manifest, extra, env):
    cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]
    return subprocess.run(cmd + extra, env=env, cwd=ROOT, stdout=sys.stderr).returncode


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "mg-serve", "--bin", "mg-serve"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]
    for manifest, extra in builds:
        if not os.path.isfile(manifest):
            print(f"run.py: {manifest} is missing", file=sys.stderr)
            return 2
        code = cargo_build(manifest, extra, env)
        if code != 0:
            return code
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "mg-sweepbench"),
        "--root", ROOT,
        "--serve-bin", os.path.join(release, "mg-serve"),
    ] + sys.argv[1:]
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
