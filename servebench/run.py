#!/usr/bin/env python3
"""Build servebench from the checkout's sources and run one workload.

Run from the repository root:

    python3 servebench/run.py --workload skew-churn --seed 1 --seconds 8 \
        --trace 0 --rate durable-edges=400000 --rate skew-churn=200000 \
        --rate restart=200000

The build goes to $CARGO_TARGET_DIR/servebench (default .bench_build), run
directories and traces to $CARGO_TARGET_DIR/work. The last line of stdout
is the JSON result; build output goes to stderr. Exits nonzero, without a
result, when the sources are missing, the build fails, or a run check
fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("durable-edges", "skew-churn", "restart")


def run_timeout_s(seconds):
    """Setup, restart cycles and checks take a fixed time; the phases and
    the reference replay grow with --seconds. 170 s at --seconds 8."""
    return 90 + 10 * seconds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--rate", action="append", default=[], metavar="WORKLOAD=OPS_PER_S",
        help="offered rate of a workload's paced phase (repeatable)")
    return parser.parse_args(argv)


def build(root, build_dir):
    """Configure + build; True on success. Output goes to stderr."""
    source = os.path.join(root, "servebench")
    out = os.path.join(build_dir, "servebench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", source, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "servebench")


def main(argv):
    args = parse_args(argv)
    rates = {}
    for item in args.rate:
        name, _, value = item.partition("=")
        rates[name] = float(value)
    if args.workload not in rates:
        print(f"error: no --rate given for {args.workload}", file=sys.stderr)
        return 2

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "service", "service.hpp")):
        print("error: run from the repository root; src/ is missing", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)
    if binary is None:
        print("error: build failed", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rate", repr(rates[args.workload]), "--work-dir", work_dir]
    timeout = run_timeout_s(args.seconds)
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"error: run exceeded {timeout:g}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
