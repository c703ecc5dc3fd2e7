#!/usr/bin/env python3
"""Builds the two-clock benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fig8|kv|fanout|failover \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build (CMake, Release) goes to
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; relative paths are taken from the repository root. Build output goes
to stderr; the benchmark's stdout is passed through, so its last line is the
JSON result. With --trace 1 the recorded spans are written next to the build,
in perfbench-traces/. See perfbench/README.md for the metrics.
"""
import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig8", "kv", "fanout", "failover")
RUN_TIMEOUT_S = 175


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(build_dir):
    """Configures once, then builds the benchmark target (a no-op when current)."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per build directory
        configured = os.path.join(build_dir, ".configured")
        if not os.path.exists(configured):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
            open(configured, "w").close()
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = build_root()
    try:
        binary = build(os.path.join(root, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    trace_dir = os.path.join(root, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--trace-dir", trace_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
