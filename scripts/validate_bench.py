#!/usr/bin/env python3
"""Structural validator for the repo's BENCH_*.json files.

Single source of truth for "is this bench output well-formed?" — CI runs it
on every smoke-run artifact (replacing the old inline heredoc in ci.yml),
and the bench binaries' --validate flag enforces the same rules in-process
on their result rows before the JSON is written (see the validate()
functions in bench/bench_*.cpp, which mirror the per-kind checks here).

Validation is shape + sanity only (fields present, counts positive, metrics
non-negative and finite, percentiles ordered); regression *gating* against
committed baselines is scripts/check_bench.py's job.

Usage: validate_bench.py FILE [FILE...]        exits non-zero on the first
malformed file, printing what failed.
"""

import json
import math
import sys


class Malformed(Exception):
    pass


def require(cond, what):
    if not cond:
        raise Malformed(what)


def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def require_metric(row, key, lo=0.0):
    require(key in row, f"missing field '{key}' in {row}")
    require(finite(row[key]) and row[key] >= lo, f"bad '{key}' in {row}")


def validate_update_latency(data):
    rows = data["results"]
    require(rows, "no result rows")
    for row in rows:
        require(row.get("workload") in ("insert", "delete", "churn"),
                f"unknown workload in {row}")
        require_metric(row, "n", lo=2)
        require_metric(row, "ops", lo=1)
        require_metric(row, "seconds")
        require_metric(row, "updates_per_sec", lo=1)
        for key in ("ns_p50", "ns_p95", "ns_p99", "ns_max"):
            require_metric(row, key)
        require(row["ns_p50"] <= row["ns_p95"] <= row["ns_p99"] <= row["ns_max"],
                f"latency percentiles out of order in {row}")
        require_metric(row, "adjustments_per_update")


def validate_distributed_cost(data):
    rows = data["results"]
    require(rows, "no result rows")
    for row in rows:
        require_metric(row, "ops", lo=1)
        for metric in ("rounds", "broadcasts", "messages", "bits", "adjustments"):
            require(metric in row, f"missing metric '{metric}' in {row}")
            summary = row[metric]
            for key in ("mean", "p50", "p95", "p99", "max"):
                require_metric(summary, key)
        require(row["graceful"]["count"] > 0, f"no graceful changes in {row}")
        for bucket in ("graceful", "node_insert", "abrupt_node_delete"):
            require(bucket in row, f"missing bucket '{bucket}' in {row}")
            for key, value in row[bucket].items():
                require(finite(value) and value >= 0,
                        f"bad {bucket}.{key} in {row}")


def validate_skew(data):
    rows = data["results"]
    require(rows, "no result rows")
    for row in rows:
        require(row.get("graph") in ("ba", "chung-lu", "planted", "uniform"),
                f"unknown graph distribution in {row}")
        require(row.get("policy") in ("hub-kill", "burst-mute", "flash-crowd",
                                      "churn"),
                f"unknown churn policy in {row}")
        require_metric(row, "n", lo=2)
        require_metric(row, "ops", lo=1)
        require(row.get("verified") is True,
                f"cell not oracle-verified in {row} — a committed skew cell "
                f"must have run with --verify")
        for metric in ("rounds", "broadcasts", "messages", "bits", "adjustments"):
            require(metric in row, f"missing metric '{metric}' in {row}")
            summary = row[metric]
            for key in ("mean", "p50", "p95", "p99", "max"):
                require_metric(summary, key)
        total = 0
        for bucket in ("graceful", "node_insert", "abrupt_node_delete"):
            require(bucket in row, f"missing bucket '{bucket}' in {row}")
            for key, value in row[bucket].items():
                require(finite(value) and value >= 0,
                        f"bad {bucket}.{key} in {row}")
            total += row[bucket]["count"]
        # Pure-adversarial policies may skip whole buckets, but every op
        # must land in one of them.
        require(total == row["ops"], f"bucket counts do not sum to ops in {row}")
        tail = row.get("degree_tail")
        require(isinstance(tail, dict), f"missing degree_tail in {row}")
        for key in ("p50", "p90", "p99", "max", "spilled_fraction",
                    "tail_exponent"):
            require_metric(tail, key)
        require(tail["p50"] <= tail["p90"] <= tail["p99"] <= tail["max"],
                f"degree_tail percentiles out of order in {row}")
        require(tail["spilled_fraction"] <= 1.0,
                f"spilled_fraction above 1 in {row}")


def validate_snapshot(data):
    rows = data["results"]
    require(rows, "no result rows")
    for row in rows:
        require_metric(row, "n", lo=2)
        require_metric(row, "edges", lo=1)
        require_metric(row, "snapshot_bytes", lo=1)
        require_metric(row, "trace_bytes", lo=1)
        for key in ("rebuild_s", "rebuild_tuned_s", "save_s", "load_s",
                    "engine_cold_s", "engine_warm_s"):
            require(row[key] > 0 and finite(row[key]), f"bad '{key}' in {row}")
        require_metric(row, "open_s")
        require(row["speedup_vs_rebuild"] > 0, f"bad speedup in {row}")
        require(row["warm_speedup"] > 0, f"bad warm_speedup in {row}")
        for key in ("borrow_open_s", "borrow_first_op_s", "borrow_speedup"):
            require(row[key] > 0 and finite(row[key]), f"bad '{key}' in {row}")
        require(row["borrow_open_s"] < row["load_s"],
                f"borrowed open not faster than materialized load in {row} — "
                f"the zero-copy path lost to the copy")


def validate_recovery(data):
    rows = data["results"]
    require(rows, "no result rows")
    for row in rows:
        require_metric(row, "interval")
        require_metric(row, "n", lo=2)
        require_metric(row, "ops", lo=1)
        require(row["ingest_s"] > 0 and finite(row["ingest_s"]),
                f"bad 'ingest_s' in {row}")
        require_metric(row, "ingest_ops_per_sec", lo=1)
        require_metric(row, "wal_bytes", lo=1)
        require_metric(row, "checkpoint_bytes")
        require_metric(row, "checkpoints")
        require_metric(row, "payload_bytes", lo=1)
        require(row["wal_amplification"] >= 1.0,
                f"wal_amplification below 1 in {row} — framing cannot shrink ops")
        require_metric(row, "tail_ops")
        require(row["tail_ops"] <= row["ops"], f"tail_ops exceeds ops in {row}")
        require(row["rto_s"] > 0 and finite(row["rto_s"]), f"bad 'rto_s' in {row}")
        for key in ("open_s", "load_s", "warm_s", "replay_s"):
            require_metric(row, key)
        require(row["open_s"] + row["load_s"] + row["warm_s"] + row["replay_s"]
                <= row["rto_s"],
                f"RTO breakdown exceeds rto_s in {row}")
        require(isinstance(row.get("borrowed"), bool),
                f"missing/odd 'borrowed' flag in {row}")


def validate_replication(data):
    rows = data["results"]
    require(rows, "no result rows")
    for row in rows:
        require(row.get("policy") in ("everyop", "everybatch", "interval"),
                f"unknown fsync policy in {row}")
        require_metric(row, "n", lo=2)
        require_metric(row, "ops", lo=1)
        require(row["ingest_s"] > 0 and finite(row["ingest_s"]),
                f"bad 'ingest_s' in {row}")
        require_metric(row, "ingest_ops_per_sec", lo=1)
        require_metric(row, "wal_bytes", lo=1)
        require_metric(row, "shipped_bytes", lo=1)
        require(row["shipped_bytes"] >= row["wal_bytes"],
                f"shipped_bytes below wal_bytes in {row} — the follower "
                f"cannot hold the full log with fewer bytes than the leader wrote")
        require_metric(row, "shipments", lo=1)
        require_metric(row, "applied_ops", lo=1)
        require(row["applied_ops"] == row["ops"],
                f"applied_ops != ops in {row} — follower lost operations")
        require(row["promoted_lsn"] == row["ops"],
                f"promoted_lsn != ops in {row} — promotion lost the tail")
        require_metric(row, "mean_lag_ops")
        require_metric(row, "max_lag_ops")
        require(row["mean_lag_ops"] <= row["max_lag_ops"],
                f"mean lag exceeds max lag in {row}")
        if row["policy"] in ("everyop", "everybatch"):
            require(row["max_lag_ops"] == 0,
                    f"synchronous policy reports nonzero lag in {row}")
        for key in ("catchup_s", "failover_rto_s"):
            require_metric(row, key)


def validate_oom(data):
    rows = data["results"]
    require(rows, "no result rows")
    config = data.get("config", {})
    for key in ("slack_bytes", "cap_bytes", "snapshot_bytes", "edges"):
        require_metric(config, key, lo=1)
    require(config["slack_bytes"] < config["snapshot_bytes"],
            "heap slack is not below the snapshot — the cap proves nothing")
    modes = {row.get("mode") for row in rows}
    require(modes == {"materialized", "borrowed"},
            f"expected one materialized and one borrowed row, got {modes}")
    for row in rows:
        require(isinstance(row.get("loaded"), bool), f"bad 'loaded' in {row}")
        require_metric(row, "open_s")
        if row["mode"] == "borrowed":
            for key in ("query_ops_per_sec", "churn_ops_per_sec"):
                require_metric(row, key)
            require_metric(row, "resident_bytes")
            require_metric(row, "mapped_bytes", lo=1)
            require(row["resident_bytes"] <= row["mapped_bytes"],
                    f"resident exceeds mapped in {row}")
            require_metric(row, "vm_data_bytes")


VALIDATORS = {
    "update_latency": validate_update_latency,
    "distributed_cost": validate_distributed_cost,
    "skew": validate_skew,
    "snapshot": validate_snapshot,
    "recovery": validate_recovery,
    "replication": validate_replication,
    "oom": validate_oom,
}


def validate_file(path):
    with open(path) as f:
        data = json.load(f)
    kind = data.get("bench")
    require(kind is not None, "missing top-level 'bench' field")
    validator = VALIDATORS.get(kind)
    if validator is None:
        # Unknown kinds (e.g. theorem7/corollary6 baselines) get the generic
        # check: a non-empty results array of objects.
        rows = data.get("results")
        require(isinstance(rows, list) and rows, "no result rows")
        require(all(isinstance(r, dict) for r in rows), "non-object result row")
    else:
        validator(data)
    return kind or "generic", len(data["results"])


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    for path in argv[1:]:
        try:
            kind, count = validate_file(path)
        except Malformed as e:
            print(f"FAIL {path}: {e}")
            return 1
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
            print(f"FAIL {path}: {e!r}")
            return 1
        print(f"OK   {path}: {count} {kind} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
