#!/usr/bin/env python3
"""A/A check: is each end-to-end metric steady enough to gate on?

Runs the benchmark command from BENCHMARK.json on the same build, as two
sets of runs interleaved (A1 B1 A2 B2 ...), every run with its own seed,
and prints per workload and metric each set's median and quartiles, the
spread (interquartile distance / median) and the shift between the two
set medians, against the metric's bound. Run from the repository root:

    python3 servebench/aa.py --runs 10
    python3 servebench/aa.py --runs 5 --workload skew-churn

A metric is "gate-ready" when every set's spread is under a third of its
bound and the sets' medians differ by less than the bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

FIRST_SEED = 1000


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed: {workload} seed {seed} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"run not correct: {workload} seed {seed}: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workload", action="append", help="default: all")
    args = parser.parse_args(argv)
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2 for quartiles")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    verdicts = {}
    seed = FIRST_SEED
    for workload in workloads:
        sets = ([], [])
        for i in range(args.runs):
            for s, runs in enumerate(sets):
                values, wall = run_once(bench["command"], workload, seed,
                                        bench["run_seconds"])
                print(f"{workload} set {'AB'[s]} run {i + 1} seed {seed} "
                      f"({wall:.1f}s): " +
                      " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
                runs.append(values)
                seed += 1
        print(f"\n{workload}: per-set median [q1, q3] spread; shift; bound; verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summary([run[name] for run in runs]) for runs in sets]
            cells = "  ".join(f"{'AB'[i]} {med:.6g} [{q1:.6g}, {q3:.6g}] {spread:.3f}"
                              for i, (med, q1, q3, spread) in enumerate(stats))
            a, b = stats[0][0], stats[1][0]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            shift = abs(worse)
            if all(st[3] < bound / 3 for st in stats) and shift < bound:
                verdict = "gate-ready"
            elif all(st[3] < bound for st in stats) and shift < bound:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
            verdicts[(workload, name)] = verdict
            print(f"  {name:20s} {cells}  shift {worse:+.3f}  bound {bound}  {verdict}")
        print()
    key = ("durable-edges", "ack_p99_us")
    if key in verdicts:
        if verdicts[key] == "gate-ready":
            print("ack_p99_us on durable-edges meets its bound on this machine.")
        else:
            print(f"ack_p99_us on durable-edges is {verdicts[key]} on this machine: "
                  "its fsync tail does not repeat run to run within the bound.")
    bad = [k for k, v in verdicts.items() if v == "UNSTEADY"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
