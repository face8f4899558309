#!/usr/bin/env python3
"""Bench gate: shape-check BENCH_*.json files, then compare a fresh run
against a committed reference and fail on regression.

Every bench kind is one entry in SPECS; generic loops validate, fold,
compare and inject. An entry declares (all keys but `key` optional):

* key — the fields that name a cell. Candidate cells without a reference
  cell are skipped (a smoke run may sweep a subset); a candidate with *no*
  matching cell fails, since the gate would otherwise check nothing.
* fields / rules — the shape of every row: `fields` maps a (dotted) path to
  a bound (a number is a lower bound on a finite number, ">0" is strictly
  positive, a tuple is an enum, "bool"/"true" a flag, "any" presence only)
  and `rules` are named predicates. doc_fields / doc_rules do the same for
  the whole document. Key and deterministic fields must be present. Every
  candidate and the reference are shape-checked before anything is gated.
* exact — fields that must be bit-identical across candidate runs (same
  seed, same trace, same counts: a difference is nondeterminism).
* fold — best-of-N over candidate runs, per wall-clock field: max for a
  throughput, min for a time (scheduler noise only ever slows a run down),
  so best-of-N converges on the machine's quiet-state speed while a real
  2x regression still blows through the band. `carry` copies fields from
  the winning run; `ratios` are recomputed from the folded fields. A kind
  without a fold gates its first run only (CI runs those benches once).
* deterministic — machine-independent counts, gated at
  DETERMINISTIC_TOLERANCE plus an absolute `slack` for near-zero means.
  Drift there is a correctness smell, not noise. A field inside a bucket is
  compared only when both sides saw ops in that bucket (pure-adversarial
  skew policies legitimately leave the graceful bucket empty).
* wall — (field, better, slack) wall-clock bands at WALL_TOLERANCE,
  skipped under --deterministic-only; `wall_when` limits them to some rows.
* bands — ratios of interleaved reps inside ONE process, robust to machine
  class, so they are gated at WALL_TOLERANCE even under --deterministic-only.
* intrinsic — (what, predicate(row, doc)) claims that need no reference,
  checked on every candidate row; `run_check` is a whole-run one.
* envelope — Lemma 13 (O(min{log n, d}) broadcasts per abrupt delete):
  mean broadcasts <= ENVELOPE_SLACK x mean min{log2 n, d(v*)} on every cell
  with at least this many abrupt deletes. The bound is on an expectation and
  the skewed per-delete cost is bimodal (a collapsing hub changes nothing or
  wakes its whole neighborhood), so skew cells need 100 samples; thinner
  cells (flash-crowd: ~12 a cell) are reference-gated only and listed in one
  note per run. Committed cells sit at 0.2-0.5x, so 1.5x means the bound
  broke. Oracle violations never reach this script: the distributed benches
  abort before writing JSON if a cell disagrees with the greedy oracle.
* inject / inject_det — the --self-test targets (inject_det under
  --deterministic-only; defaults to inject).

--deterministic-only is for a candidate machine outside the reference's
speed class, e.g. CI's scalar-flatset leg, built without the SIMD probes
the baselines were recorded with: it keeps counts, ratio bands and
intrinsics, and skips the absolute wall-clock bands and recovery's
wall-clock replay-growth check.

Usage:
  check_bench.py CANDIDATE [CANDIDATE...] --ref REFERENCE
                 [--deterministic-only] [--self-test]

--self-test injects a synthetic 2x regression into a copy of the folded
candidate and requires the gate to catch it **using the candidate itself as
the reference**: same-machine numbers, so it passes or fails identically on
any hardware. A silently broken gate then fails loudly instead of waving
regressions through.
"""

import argparse
import copy
import json
import math
import sys

DETERMINISTIC_TOLERANCE = 0.05
WALL_TOLERANCE = 0.30
ENVELOPE_SLACK = 1.5
BORROW_SPEEDUP_FLOOR = 10.0

SUMMARY = ("p50", "p95", "p99", "max")
METRICS = ("rounds", "broadcasts", "messages", "bits", "adjustments")
BUCKETS = ("graceful", "node_insert", "abrupt_node_delete")


def get(obj, path):
    for part in path.split("."):
        obj = obj[part]
    return obj


def number(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def double(x):
    return 2 * x


def halve(x):
    return x / 2


def ordered(*paths):
    return (" <= ".join(paths),
            lambda r: all(get(r, a) <= get(r, b) for a, b in zip(paths, paths[1:])))


# The per-op cost summaries and change-type buckets of the distributed
# benches (bench_distributed_cost, bench_skew).
COST_FIELDS = {f"{m}.{s}": 0 for m in METRICS for s in ("mean",) + SUMMARY}
COST_RULES = tuple(ordered(*(f"{m}.{s}" for s in SUMMARY)) for m in METRICS) + (
    ("bucket fields finite and >= 0",
     lambda r: all(number(v) and v >= 0 for b in BUCKETS for v in r[b].values())),)
BORROWED_FIELDS = {"query_ops_per_sec": 0, "churn_ops_per_sec": 0,
                   "resident_bytes": 0, "mapped_bytes": 1, "vm_data_bytes": 0}
REPLICATION_COUNTS = ("wal_bytes", "shipped_bytes", "shipments", "applied_ops",
                      "promoted_lsn", "mean_lag_ops", "max_lag_ops")


def replay_grows(rows, deterministic_only):
    """More tail must cost more replay: the reason checkpoints exist.
    Compared at >= 10x tail separation so wall clock cannot flip it."""
    if deterministic_only or len(rows) < 2:
        return []
    lo = min(rows, key=lambda r: r["tail_ops"])
    hi = max(rows, key=lambda r: r["tail_ops"])
    if hi["tail_ops"] >= 10 * max(lo["tail_ops"], 1) and hi["replay_s"] <= lo["replay_s"]:
        return [f"replay_s did not grow with the tail: {hi['tail_ops']} ops replayed in "
                f"{hi['replay_s']:.6f}s vs {lo['tail_ops']} ops in {lo['replay_s']:.6f}s "
                f"— checkpoints no longer bound recovery"]
    return []


SPECS = {
    # Throughput is the sum of individually timed op latencies.
    "update_latency": dict(
        key=("workload", "n"),
        fields={"workload": ("insert", "delete", "churn"), "n": 2, "ops": 1,
                "seconds": 0, "updates_per_sec": 1, "ns_p50": 0, "ns_p95": 0,
                "ns_p99": 0, "ns_max": 0, "adjustments_per_update": 0},
        rules=(ordered("ns_p50", "ns_p95", "ns_p99", "ns_max"),),
        exact=("adjustments_per_update",),
        fold={"updates_per_sec": max},
        deterministic=("adjustments_per_update",),
        wall=(("updates_per_sec", max, 0),),
        inject={"updates_per_sec": halve},
        inject_det={"adjustments_per_update": double},
    ),
    "distributed_cost": dict(
        key=("workload", "n"),
        fields={"ops": 1, **COST_FIELDS},
        rules=COST_RULES + (("graceful.count > 0", lambda r: r["graceful"]["count"] > 0),),
        deterministic=("graceful.mean_broadcasts", "graceful.mean_adjustments",
                       "graceful.mean_rounds"),
        slack=0.02,
        envelope=1,
        inject={"graceful.mean_broadcasts": double},
    ),
    # Heavy-tailed graphs under hub-targeting churn: the regime where
    # min{log n, d} binds. Counts are deterministic only for a fixed trace,
    # so the cell key includes ops.
    "skew": dict(
        key=("graph", "policy", "n", "ops"),
        fields={"graph": ("ba", "chung-lu", "planted", "uniform"),
                "policy": ("hub-kill", "burst-mute", "flash-crowd", "churn"),
                "n": 2, "ops": 1, "verified": "true", **COST_FIELDS,
                **{f"degree_tail.{k}": 0 for k in
                   ("p50", "p90", "p99", "max", "spilled_fraction", "tail_exponent")}},
        rules=COST_RULES + (
            ("bucket counts sum to ops",
             lambda r: sum(r[b]["count"] for b in BUCKETS) == r["ops"]),
            ordered("degree_tail.p50", "degree_tail.p90", "degree_tail.p99",
                    "degree_tail.max"),
            ("spilled_fraction <= 1", lambda r: r["degree_tail"]["spilled_fraction"] <= 1)),
        deterministic=("graceful.mean_broadcasts", "graceful.mean_adjustments",
                       "graceful.mean_rounds", "node_insert.mean_broadcasts",
                       "node_insert.mean_adjustments", "abrupt_node_delete.mean_broadcasts",
                       "abrupt_node_delete.mean_envelope",
                       "abrupt_node_delete.mean_adjustments"),
        slack=0.02,
        envelope=100,
        inject={"abrupt_node_delete.mean_broadcasts": lambda x: 2 * x + 1},
    ),
    # Warm start (persisted keys + membership, zero recompute) and borrowed
    # open (zero-copy mapping) against the materialized paths.
    "snapshot": dict(
        key=("n",),
        fields={"n": 2, "edges": 1, "snapshot_bytes": 1, "trace_bytes": 1, "open_s": 0,
                **dict.fromkeys(("rebuild_s", "rebuild_tuned_s", "save_s", "load_s",
                                 "speedup_vs_rebuild", "engine_cold_s", "engine_warm_s",
                                 "warm_speedup", "borrow_open_s", "borrow_first_op_s",
                                 "borrow_speedup"), ">0")},
        rules=(("borrow_open_s < load_s (the zero-copy path lost to the copy)",
                lambda r: r["borrow_open_s"] < r["load_s"]),),
        exact=("edges", "snapshot_bytes", "trace_bytes"),
        fold={"engine_cold_s": min, "engine_warm_s": min, "load_s": min,
              "borrow_open_s": min},
        ratios={"warm_speedup": ("engine_cold_s", "engine_warm_s"),
                "borrow_speedup": ("load_s", "borrow_open_s")},
        wall=(("engine_warm_s", min, 0), ("borrow_open_s", min, 1e-4)),
        bands=("warm_speedup", "borrow_speedup"),
        intrinsic=((f"borrowed open-to-first-query under {BORROW_SPEEDUP_FLOOR}x the "
                    f"materialized load at n >= 1e6 — the zero-copy open degraded to a copy",
                    lambda r, doc: r["n"] < 1_000_000
                    or r["borrow_speedup"] >= BORROW_SPEEDUP_FLOOR),),
        inject={"engine_warm_s": double, "warm_speedup": halve,
                "borrow_open_s": double, "borrow_speedup": halve},
    ),
    # One cell per checkpoint interval. Bytes and op counts are deterministic
    # only for a fixed workload length, so the cell key includes ops.
    "recovery": dict(
        key=("interval", "ops"),
        fields={"interval": 0, "n": 2, "ops": 1, "ingest_s": ">0", "ingest_ops_per_sec": 1,
                "wal_bytes": 1, "checkpoint_bytes": 0, "checkpoints": 0,
                "payload_bytes": 1, "wal_amplification": 1, "tail_ops": 0, "rto_s": ">0",
                "open_s": 0, "load_s": 0, "warm_s": 0, "replay_s": 0, "borrowed": "bool"},
        rules=(("tail_ops <= ops", lambda r: r["tail_ops"] <= r["ops"]),
               ("open_s + load_s + warm_s + replay_s <= rto_s",
                lambda r: r["open_s"] + r["load_s"] + r["warm_s"] + r["replay_s"]
                <= r["rto_s"])),
        exact=("wal_bytes", "checkpoint_bytes", "checkpoints", "payload_bytes", "tail_ops"),
        fold={"rto_s": min, "ingest_ops_per_sec": max},
        carry={"rto_s": ("open_s", "load_s", "warm_s", "replay_s")},
        deterministic=("wal_bytes", "checkpoint_bytes", "checkpoints", "payload_bytes",
                       "tail_ops", "wal_amplification"),
        wall=(("rto_s", min, 1e-3), ("ingest_ops_per_sec", max, 0)),
        # A checkpoint fires at the first batch boundary at or past the
        # interval, so the replay tail never reaches interval + batch.
        intrinsic=(("tail_ops breaks the interval + batch bound — checkpoint cadence broke",
                    lambda r, doc: r["interval"] <= 0 or r["tail_ops"]
                    < r["interval"] + doc.get("config", {}).get("batch", 1)),),
        run_check=replay_grows,
        inject={"rto_s": double},
        inject_det={"wal_amplification": double},
    ),
    # One cell per fsync policy. Wire and lag fields are deterministic over
    # the loss-free in-process transport; a cell that exists has passed the
    # bench's own failover differential (promoted follower == reference).
    "replication": dict(
        key=("policy", "ops"),
        fields={"policy": ("everyop", "everybatch", "interval"), "n": 2, "ops": 1,
                "ingest_s": ">0", "ingest_ops_per_sec": 1, "wal_bytes": 1,
                "shipped_bytes": 1, "shipments": 1, "applied_ops": 1, "mean_lag_ops": 0,
                "max_lag_ops": 0, "catchup_s": 0, "failover_rto_s": ">0"},
        rules=(("shipped_bytes >= wal_bytes", lambda r: r["shipped_bytes"] >= r["wal_bytes"]),
               ("applied_ops == ops", lambda r: r["applied_ops"] == r["ops"]),
               ("promoted_lsn == ops", lambda r: r["promoted_lsn"] == r["ops"]),
               ("mean_lag_ops <= max_lag_ops",
                lambda r: r["mean_lag_ops"] <= r["max_lag_ops"])),
        exact=REPLICATION_COUNTS,
        fold={"ingest_ops_per_sec": max, "catchup_s": min, "failover_rto_s": min},
        deterministic=REPLICATION_COUNTS,
        wall=(("failover_rto_s", min, 1e-3), ("catchup_s", min, 1e-3),
              ("ingest_ops_per_sec", max, 0)),
        intrinsic=(("nonzero lag under a synchronous policy — the durable-cursor "
                    "contract broke",
                    lambda r, doc: r["policy"] not in ("everyop", "everybatch")
                    or r["max_lag_ops"] == 0),),
        inject={"failover_rto_s": double},
        inject_det={"shipped_bytes": double},
    ),
    # Beyond-RAM serving: under a heap cap smaller than the snapshot the
    # materialized load must fail and the borrowed path must serve.
    "oom": dict(
        key=("mode",),
        fields={"loaded": "bool", "open_s": 0},
        rules=(("borrowed row fields", lambda r: r["mode"] != "borrowed"
                or field_error(r, BORROWED_FIELDS) is None),
               ("resident_bytes <= mapped_bytes", lambda r: r["mode"] != "borrowed"
                or r["resident_bytes"] <= r["mapped_bytes"])),
        doc_fields={f"config.{k}": 1 for k in
                    ("slack_bytes", "cap_bytes", "snapshot_bytes", "edges")},
        doc_rules=(("heap slack below the snapshot (else the cap proves nothing)",
                    lambda d: d["config"]["slack_bytes"] < d["config"]["snapshot_bytes"]),
                   ("one materialized and one borrowed row",
                    lambda d: {r["mode"] for r in d["results"]}
                    == {"materialized", "borrowed"})),
        wall=(("churn_ops_per_sec", max, 0), ("query_ops_per_sec", max, 0),
              ("open_s", min, 1e-4)),
        wall_when=lambda r: r["mode"] == "borrowed",
        intrinsic=(("the materialized load SUCCEEDED under the heap cap — the cap did "
                    "not bind or load() stopped copying",
                    lambda r, doc: r["mode"] != "materialized" or not r["loaded"]),
                   ("the borrowed path failed under the heap cap",
                    lambda r, doc: r["mode"] != "borrowed" or r["loaded"]),
                   ("borrowed heap exceeds the cap — the overlay is not O(touched set)",
                    lambda r, doc: r["mode"] != "borrowed"
                    or r["vm_data_bytes"] <= doc["config"]["cap_bytes"])),
        # Flips the materialized row; a gated borrowed row is already loaded.
        inject={"loaded": lambda x: True},
    ),
    # Theorem 7: per-change costs of the distributed protocol.
    "theorem7": dict(
        key=("table", "change", "n", "d", "trials"),
        fields={"table": ("per_change_type", "abrupt_delete_vs_degree", "insert_vs_degree"),
                "n": 2, "d": 0, "trials": 1, "adjustments": 0, "rounds": 0,
                "broadcasts": 0, "bits": 0},
        deterministic=("adjustments", "rounds", "broadcasts", "bits"),
        inject={"broadcasts": double},
    ),
    # Corollary 6: rounds and adjustments per change, sync vs async.
    "corollary6": dict(
        key=("model", "n", "trials"),
        fields={"model": ("sync", "async"), "n": 2, "trials": 1, "rounds": 0,
                "adjustments": 0},
        deterministic=("rounds", "adjustments"),
        inject={"rounds": double},
    ),
}


def field_error(obj, fields):
    """The first field of `obj` that breaks its bound, or None."""
    for path, want in fields.items():
        try:
            value = get(obj, path)
        except (KeyError, TypeError):
            return f"missing field '{path}'"
        if want == "any":
            continue
        if want == "bool":
            bad = not isinstance(value, bool)
        elif want == "true":
            bad = value is not True
        elif isinstance(want, tuple):
            bad = value not in want
        else:
            bad = not number(value) or (value <= 0 if want == ">0" else value < want)
        if bad:
            return f"bad '{path}': {value!r}"
    return None


def rule_error(obj, rules):
    for what, ok in rules:
        try:
            if not ok(obj):
                return f"violates {what}"
        except (AttributeError, KeyError, TypeError):
            return f"cannot check {what}"
    return None


def shape_error(spec, doc):
    """Why `doc` is not a well-formed bench document of this kind, or None."""
    rows = doc.get("results")
    if not isinstance(rows, list) or not rows:
        return "no result rows"
    error = field_error(doc, spec.get("doc_fields", {})) or \
        rule_error(doc, spec.get("doc_rules", ()))
    if error:
        return error
    fields = {**dict.fromkeys(spec["key"] + spec.get("deterministic", ()), "any"),
              **spec.get("fields", {})}
    for i, row in enumerate(rows):
        error = "not an object" if not isinstance(row, dict) else \
            field_error(row, fields) or rule_error(row, spec.get("rules", ()))
        if error:
            return f"row {i}: {error}"
    return None


def cell_key(spec, row):
    return tuple(get(row, k) for k in spec["key"])


def describe(spec, key):
    return " ".join(f"{k}={v}" for k, v in zip(spec["key"], key))


def fold(spec, runs):
    """Fold candidate runs into one document; returns (merged, failures)."""
    merged = copy.deepcopy(runs[0])
    if "fold" not in spec:
        if len(runs) > 1:
            print(f"note: using first of {len(runs)} candidate runs "
                  f"(this kind has no best-of-N fold)")
        return merged, []
    cells = {cell_key(spec, r): r for r in merged["results"]}
    failures = []
    for run in runs[1:]:
        for row in run["results"]:
            key = cell_key(spec, row)
            cell = cells.get(key)
            if cell is None:
                continue
            failures += [f"{describe(spec, key)}: {f} differs between candidate runs "
                         f"({row[f]} vs {cell[f]}) — nondeterminism"
                         for f in spec.get("exact", ()) if row[f] != cell[f]]
            for f, best in spec["fold"].items():
                if best(row[f], cell[f]) != cell[f]:
                    for g in (f,) + spec.get("carry", {}).get(f, ()):
                        cell[g] = row[g]
    for row in merged["results"]:
        for ratio, (num, den) in spec.get("ratios", {}).items():
            row[ratio] = row[num] / row[den]
    return merged, failures


def thin_note(thin, bar):
    """The one summary line per run for cells under the envelope sample bar,
    or None: a flash-crowd sweep has a dozen thin cells, all in the same
    situation, and a note per cell buried the OK/FAIL lines."""
    if not thin:
        return None
    return (f"note {len(thin)} cell(s) under {bar} abrupt samples — envelope "
            f"reference-gated, not intrinsically checked: {', '.join(thin)}")


def worse(got, want, best, slack):
    """True when `got` is worse than `want` by more than the wall band."""
    if best is max:
        return got < want * (1.0 - WALL_TOLERANCE)
    return got > want * (1.0 + WALL_TOLERANCE) + slack


def gate(spec, candidate, reference, deterministic_only):
    """Failure lines for `candidate` against `reference` (prints OK/SKIP)."""
    ref_cells = {cell_key(spec, r): r for r in reference["results"]}
    failures, thin, matched = [], [], 0
    for row in candidate["results"]:
        key = cell_key(spec, row)
        name = describe(spec, key)
        found = [f"{name}: {what}" for what, ok in spec.get("intrinsic", ())
                 if not ok(row, candidate)]
        if "envelope" in spec:
            abrupt = row["abrupt_node_delete"]
            if abrupt["count"] >= spec["envelope"]:
                if abrupt["mean_broadcasts"] > ENVELOPE_SLACK * abrupt["mean_envelope"]:
                    found.append(f"{name}: abrupt-delete broadcasts "
                                 f"{abrupt['mean_broadcasts']:.2f} exceed {ENVELOPE_SLACK}x "
                                 f"the min{{log n, d}} envelope {abrupt['mean_envelope']:.2f}")
            elif abrupt["count"] > 0:
                thin.append(f"{name} ({abrupt['count']})")
        base = ref_cells.get(key)
        if base is None:
            print(f"SKIP {name}: no reference cell (intrinsics checked)")
            failures += found
            continue
        matched += 1
        compared = []
        wall = () if deterministic_only or not spec.get("wall_when", lambda r: True)(row) \
            else spec.get("wall", ())
        bands = [(f, max, 0) for f in spec.get("bands", ())]
        for f, best, slack in list(wall) + bands:
            got, want = row[f], base[f]
            compared.append((f, got, want))
            if worse(got, want, best, slack):
                found.append(f"{name}: {f} {got:.6g} vs reference {want:.6g} "
                             f"(> {WALL_TOLERANCE:.0%} worse)")
        for f in spec.get("deterministic", ()):
            bucket = f.rpartition(".")[0]
            if bucket and not (get(row, bucket)["count"] and get(base, bucket)["count"]):
                continue
            got, want = get(row, f), get(base, f)
            compared.append((f, got, want))
            if not abs(got - want) <= DETERMINISTIC_TOLERANCE * want + spec.get("slack", 1e-3):
                found.append(f"{name}: {f} {got:.6g} vs reference {want:.6g} — "
                             f"deterministic quantity moved "
                             f"(> {DETERMINISTIC_TOLERANCE:.0%})")
        if not found:
            detail = "".join(f": {f} {got:.6g} (reference {want:.6g})"
                             for f, got, want in compared[:1])
            print(f"OK   {name}{detail}")
        failures += found
    if thin:
        print(thin_note(thin, spec["envelope"]))
    if "run_check" in spec:
        failures += spec["run_check"](candidate["results"], deterministic_only)
    if matched == 0:
        failures.append("no candidate cell matched the reference — gate checked nothing")
    return failures


def inject(spec, doc, deterministic_only):
    """A copy of `doc` with a synthetic 2x regression in the spec's targets."""
    regressed = copy.deepcopy(doc)
    targets = spec.get("inject_det", spec["inject"]) if deterministic_only \
        else spec["inject"]
    for row in regressed["results"]:
        for path, change in targets.items():
            parent, _, leaf = path.rpartition(".")
            obj = get(row, parent) if parent else row
            obj[leaf] = change(obj[leaf])
    return regressed


def run(args):
    docs = []
    for path in args.candidates + [args.ref]:
        try:
            with open(path) as f:
                docs.append(json.load(f))
        except (OSError, ValueError) as e:
            print(f"FAIL {path}: {e}")
            return 1
    kinds = [doc.get("bench") if isinstance(doc, dict) else None for doc in docs]
    spec = SPECS.get(kinds[-1])
    if spec is None:
        print(f"FAIL {args.ref}: no gate for bench kind {kinds[-1]!r} (known: {sorted(SPECS)})")
        return 1
    for path, doc, kind in zip(args.candidates + [args.ref], docs, kinds):
        error = f"bench kind {kind!r}, reference is {kinds[-1]!r}" if kind != kinds[-1] \
            else shape_error(spec, doc)
        if error:
            print(f"FAIL {path}: {error}")
            return 1
        print(f"OK   {path}: {len(doc['results'])} {kind} rows well-formed")

    candidate, failures = fold(spec, docs[:-1])
    failures = failures or gate(spec, candidate, docs[-1], args.deterministic_only)
    for failure in failures:
        print(f"FAIL {failure}")
    if failures or not args.self_test:
        return 1 if failures else 0

    # A regression back to a note per cell, or a swallowed note, fails here.
    print("--- self-test: thin-cell note prints once per run ---")
    if thin_note([], 100) is not None:
        print("FAIL: thin-cell note emitted for an empty run")
        return 1
    note = thin_note(["a (12)", "b (3)"], 100)
    if note is None or note.count("note") != 1 or "2 cell(s)" not in note:
        print(f"FAIL: thin-cell note is not a single summary line: {note!r}")
        return 1
    print(f"self-test OK: {note}")

    # Gate the injected copy against the candidate, not the committed
    # reference: same-machine numbers, so a 2x injection trips the band by
    # construction on any hardware.
    print("--- self-test: injecting a synthetic 2x regression ---")
    caught = gate(spec, inject(spec, candidate, args.deterministic_only), candidate,
                  args.deterministic_only)
    for failure in caught:
        print(f"caught {failure}")
    if not caught:
        print("FAIL: gate did not catch the injected 2x regression")
        return 1
    print("self-test OK: injected regression was caught")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("candidates", nargs="+",
                        help="fresh bench JSON(s); several runs of one bench are "
                             "folded per cell (best wall-clock fields)")
    parser.add_argument("--ref", required=True, help="committed BENCH_*.json baseline")
    parser.add_argument("--deterministic-only", action="store_true",
                        help="skip the absolute wall-clock bands (for a machine class "
                             "the reference does not represent)")
    parser.add_argument("--self-test", action="store_true",
                        help="also require the gate to catch an injected 2x regression")
    args = parser.parse_args()
    try:
        return run(args)
    except (AttributeError, KeyError, TypeError, ValueError, ArithmeticError) as e:
        print(f"FAIL malformed bench data: {type(e).__name__}: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
