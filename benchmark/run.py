#!/usr/bin/env python3
"""Build the release binaries from source, then run one benchmark workload.

    python3 benchmark/run.py --workload <paper-sweep|admit-tandem16> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `dnc` (the program under test) and
the `dnc-benchmark` harness into $CARGO_TARGET_DIR (default `.bench_build`),
then hands the arguments to the harness, whose last stdout line is the
JSON result. Build output goes to stderr. See benchmark/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args):
    """Run one cargo build with its output on stderr; exit on failure."""
    done = subprocess.run(["cargo", "build", "--release", "--offline", *args],
                          cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"benchmark: cargo build {' '.join(args)} failed")


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    build(["-p", "dnc-cli"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    release = os.path.join(target, "release")
    harness = [os.path.join(release, "dnc-benchmark"), *sys.argv[1:],
               "--dnc", os.path.join(release, "dnc"),
               "--out", os.path.join(ROOT, ".bench_out")]
    sys.exit(subprocess.run(harness, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
