#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload attack_sweep --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The build goes to
`$CARGO_TARGET_DIR` (default `.bench_build`); a failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Kernel threads never exceed the host's cores (2 on the reference host).
    env["NEURODEANON_THREADS"] = str(min(2, os.cpu_count() or 1))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
