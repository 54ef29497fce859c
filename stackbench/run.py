#!/usr/bin/env python3
"""Build the shipped `slj` binary and `perf_stack` from source, then run
`perf_stack` with this script's arguments.

Run from the repository root, e.g.

    python3 stackbench/run.py --workload http_full_c1 --seed 1 --seconds 20 --trace 0

Both builds go to `$CARGO_TARGET_DIR` (default `target`), so the
benchmark drives `<target>/release/slj`. Build output goes to stderr;
stdout carries only perf_stack's report, whose last line is the JSON
result of the run.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR", "target")
    builds = [
        ["cargo", "build", "--release", "--quiet", "-p", "slj-cli", "--bin", "slj"],
        [
            "cargo", "build", "--release", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--target-dir", target,
        ],
    ]
    for build in builds:
        done = subprocess.run(build, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(done.returncode or 1)
    # perf_stack finds <target>/release/slj through the same variable.
    done = subprocess.run([os.path.join(target, "release", "perf_stack")] + sys.argv[1:])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
