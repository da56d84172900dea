#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload intset-contended --seed 1 --seconds 25 --trace 0

The benchmark is the standalone CMake package in perfbench/; it is configured
and built into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the checkout) before every run, which is a no-op once it is up to
date. Build output goes to standard error. The last line of standard output
is the result: one JSON object with the keys correct, attempted, failed and
metrics. The full report (bench JSON shape: benchmark, quick, seed, tables)
is written to <build dir>/reports/<workload>-seed<n>-trace<t>.json, and a
traced run's span log to <build dir>/reports/<workload>.spans.json.

Exits non-zero without printing a result when the build fails, for example
in a directory that holds the benchmark but not the stack's sources.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("intset-contended", "intset-stm-large", "stamp-apps")
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_step(cmd):
    """Runs one build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
    except OSError as err:
        log(f"cannot run {cmd[0]}: {err}")
        return False


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_step(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return None
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not run_step(["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
        return None
    return os.path.join(out, "perfbench")


def git_commit():
    """The checkout's commit, or "unknown" when it is not a git work tree."""
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in [1, 120]")

    out = build_dir()
    binary = build(out)
    if binary is None:
        log("build failed")
        return 1

    reports = os.path.join(out, "reports")
    os.makedirs(reports, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", os.path.join(HERE, "reference_digests.txt"),
        "--report", os.path.join(reports, stem + ".json"),
        "--commit", git_commit(),
    ]
    if args.trace:
        cmd += ["--spans", os.path.join(reports, args.workload + ".spans.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
