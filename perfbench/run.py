#!/usr/bin/env python3
"""Build the repository benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze_mix --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) inside the
checkout; cmake output goes to standard error, so the last line of standard
output is the benchmark's result object. Any other arguments are passed to
the perfbench binary (see perfbench/README.md).
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets=("perfbench",)):
    """Configures and builds the benchmark package; returns the build dir."""
    out = build_dir()
    subprocess.run(
        ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", out, "-j", str(os.cpu_count() or 1), "--target",
         *targets],
        stdout=sys.stderr, check=True)
    return out


def main(argv):
    try:
        out = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    command = [
        os.path.join(out, "perfbench"), *argv,
        "--reference", os.path.join(BENCH_DIR, "reference.txt"),
        "--out-dir", os.path.join(out, "perfbench-out"),
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
