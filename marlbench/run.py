#!/usr/bin/env python3
"""Builds the benchmark and the marl-serve server from source, then runs one workload.

Usage, from the root of the repository:

    python3 marlbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both builds are release builds into $CARGO_TARGET_DIR (default
`.bench_build` under the working directory). Cargo's own output goes to
stderr, so the last line of stdout is the benchmark's JSON result. A
failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(env, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    env["CARGO_TARGET_DIR"] = target
    steps = [
        (os.path.join(HERE, "Cargo.toml"),),
        (os.path.join(ROOT, "Cargo.toml"), "-p", "marl-serve", "--bin", "marl-serve"),
    ]
    for step in steps:
        if not os.path.isfile(step[0]):
            print(f"error: {step[0]} not found; run from a full checkout", file=sys.stderr)
            return 2
        code = build(env, *step)
        if code != 0:
            print(f"error: build of {step[0]} failed ({code})", file=sys.stderr)
            return code
    bench = os.path.join(target, "release", "marlbench")
    serve = os.path.join(target, "release", "marl-serve")
    os.execv(bench, [bench, *sys.argv[1:], "--serve-bin", serve])


if __name__ == "__main__":
    sys.exit(main())
