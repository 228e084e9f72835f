#!/usr/bin/env python3
"""Build the benchmark and run one workload in a fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is its own Cargo package
(perfbench/Cargo.toml) that builds against the repository's crates by path;
it is built into $CARGO_TARGET_DIR (default: .bench_build) and then run with
the dtp-par thread count pinned through DTP_THREADS. Each call starts a new
process, so peak memory and registry counters never carry over between
workloads. The last line of standard output is the JSON result; build output
goes to standard error. The exit code is the benchmark's: 0 only when every
output check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream_fleet", "offline_train", "packet_capture")
# Load comes from one process with at most two worker threads.
THREADS = max(1, min(2, os.cpu_count() or 1))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args(argv)


def build():
    """Build the benchmark binary; returns its path or exits non-zero."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        sys.exit("perfbench: the repository's crates/ directory is missing; nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build timed out")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def main(argv):
    args = parse_args(argv)
    binary = build()
    env = dict(os.environ, DTP_THREADS=str(THREADS))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
