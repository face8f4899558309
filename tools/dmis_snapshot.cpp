// dmis_snapshot — the operator CLI for the binary snapshot + trace formats.
//
//   dmis_snapshot save    --out g.snap [--n N --deg D --seed S | --trace t.trc]
//                         [--engine [--priority-seed P]]
//   dmis_snapshot load    --in g.snap [--warm]   time mmap-open + bulk load
//                         [--borrow]             (+ warm engine start on
//                                                v2–v4); --borrow opens
//                                                zero-copy
//   dmis_snapshot verify  --in g.snap            checksum + deep consistency
//                                                (v2–v4: greedy-fixpoint
//                                                check; .trc: checksum + op
//                                                replay)
//   dmis_snapshot stats   --in g.snap            header, sections, degrees
//   dmis_snapshot record  --out t.trc --n N --ops K [--deg D --seed S ...]
//
// `save` builds a graph — either G(n, m) at the requested average degree or
// the graph a binary trace (workload::TraceFile, the only trace format)
// materializes — and writes it as a snapshot. A trace file that fails
// TraceFile's open validation, or holds an op that cannot apply where it
// stands (TraceFile::materialize: a dead id, a self-loop, a duplicate or
// missing edge), is reported as `op <i>: <reason>` and exits 1; `verify`
// runs the same replay on a .trc after its checksum. With `--engine` it
// additionally runs a CascadeEngine over the graph and writes a version-4
// snapshot carrying the engine state (priority keys + membership, no edge
// table), which `load --warm` restarts without recomputing the greedy MIS.
// Version-2 and version-3 files (written by older builds) still load; a v3
// shard table is ignored. Plain `load --borrow` times a shallow open; `--warm` always opens
// with full validation first, because a warm start adopts the engine-state
// sections, which only the full pass checks. Warm loads print the engine
// fingerprint (core/identity.hpp; borrowed and materialized loads of one
// file agree) so two restarts of the same state can be diffed in one line.
// `record` emits a self-contained binary churn trace: the grow history of
// the warm start graph followed by `--ops` random churn ops, so replaying
// the whole file from an empty engine reproduces the workload exactly (that
// replay is bench_snapshot's rebuild comparator).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/cascade_engine.hpp"
#include "core/engine_snapshot.hpp"
#include "core/identity.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "graph/snapshot.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/trace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace dmis;
using graph::NodeId;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Build the save input: either the materialization of a binary trace file
/// or a fresh G(n, m) at the requested average degree.
bool build_graph(const std::string& trace_path, NodeId n, double deg,
                 std::uint64_t seed, graph::DynamicGraph& out) {
  if (!trace_path.empty()) {
    workload::TraceFile tf;
    std::string error;
    if (!tf.open(trace_path, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return false;
    }
    if (!tf.materialize(out, &error)) {
      std::fprintf(stderr, "error: %s: %s\n", trace_path.c_str(), error.c_str());
      return false;
    }
    return true;
  }
  util::Rng rng(seed);
  out = graph::random_avg_degree(n, deg, rng);
  return true;
}

int cmd_save(util::Cli& cli) {
  const auto out = cli.flag_string("out", "graph.snap", "snapshot output path");
  const auto trace_path =
      cli.flag_string("trace", "", "build from this binary trace (.trc)");
  const auto n = static_cast<NodeId>(cli.flag_int("n", 100'000, "nodes (random graph)"));
  const auto deg = cli.flag_double("deg", 8.0, "average degree (random graph)");
  const auto seed = static_cast<std::uint64_t>(cli.flag_int("seed", 42, "rng seed"));
  const bool engine =
      cli.flag_bool("engine", false, "persist engine state too (version-4 snapshot)");
  const auto priority_seed = static_cast<std::uint64_t>(
      cli.flag_int("priority-seed", 42, "priority seed for --engine"));
  cli.finish();

  graph::DynamicGraph g;
  if (!build_graph(trace_path, n, deg, seed, g)) return 1;
  const auto t0 = Clock::now();
  std::string error;
  if (engine) {
    const core::CascadeEngine e(std::move(g), priority_seed);
    if (!core::save_snapshot(e, out, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("saved %s (v4): %u nodes, %zu edges, |MIS| %zu in %.3fs\n",
                out.c_str(), e.graph().node_count(), e.graph().edge_count(),
                e.mis_size(), seconds_since(t0));
    return 0;
  }
  if (!g.save(out, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("saved %s: %u nodes, %zu edges in %.3fs\n", out.c_str(), g.node_count(),
              g.edge_count(), seconds_since(t0));
  return 0;
}

int cmd_load(util::Cli& cli) {
  const auto in = cli.flag_string("in", "graph.snap", "snapshot input path");
  const bool no_mmap =
      cli.flag_bool("no-mmap", false, "force the read fallback instead of mmap");
  const bool warm = cli.flag_bool(
      "warm", false, "also warm-start a CascadeEngine from the persisted state (v2+)");
  const bool borrow = cli.flag_bool(
      "borrow", false,
      "borrow the graph in place (zero-copy; shallow open unless --warm) "
      "instead of materializing heap copies");
  cli.finish();

  if (borrow) {
    // A warm start adopts the engine-state sections, which only a full open
    // validates; plain --borrow times the shallow open.
    const auto validation =
        warm ? graph::SnapshotValidation::kFull : graph::SnapshotValidation::kShallow;
    auto snap = std::make_shared<graph::Snapshot>();
    std::string error;
    const auto t0 = Clock::now();
    if (!snap->open(in, &error, no_mmap, validation)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    const double open_s = seconds_since(t0);
    const auto t1 = Clock::now();
    const graph::DynamicGraph g = graph::DynamicGraph::borrow(snap);
    // First query, answered off the mapping — what an operator actually
    // waits for after a borrowed open.
    std::uint64_t touched = 0;
    for (NodeId v = 0; v < g.id_bound() && touched < 4; ++v)
      if (g.has_node(v)) touched += g.degree(v) > 0 ? 1 : 0;
    const double borrow_s = seconds_since(t1);
    std::printf("%s: %u nodes, %llu edges (%s, borrowed)\n", in.c_str(),
                snap->node_count(),
                static_cast<unsigned long long>(snap->edge_count()),
                snap->is_mapped() ? "mmap" : "read fallback");
    std::printf("%s %.6fs  borrow+first-query %.6fs  resident %llu "
                "of %llu mapped bytes\n",
                warm ? "open" : "shallow-open", open_s, borrow_s,
                static_cast<unsigned long long>(snap->resident_bytes()),
                static_cast<unsigned long long>(snap->header().file_size));
    if (warm) {
      if (!snap->has_engine_state()) {
        std::fprintf(stderr, "error: %s: --warm needs engine state "
                             "(save with --engine)\n",
                     in.c_str());
        return 1;
      }
      const auto t2 = Clock::now();
      const core::CascadeEngine e(graph::DynamicGraph::borrow(snap), *snap,
                                  snap->priority_seed(), graph::SnapshotLoad::kWarm);
      const double warm_s = seconds_since(t2);
      std::printf("warm engine-ready %.6fs  (|MIS| %zu, fingerprint %016llx, "
                  "borrowed graph)\n",
                  warm_s, e.mis_size(),
                  static_cast<unsigned long long>(core::fingerprint(e)));
    }
    return 0;
  }

  graph::Snapshot snap;
  std::string error;
  const auto t0 = Clock::now();
  if (!snap.open(in, &error, no_mmap)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const double open_s = seconds_since(t0);
  const auto t1 = Clock::now();
  const graph::DynamicGraph g = graph::DynamicGraph::load(snap);
  const double load_s = seconds_since(t1);
  std::printf("%s: %u nodes, %llu edges (%s)\n", in.c_str(), snap.node_count(),
              static_cast<unsigned long long>(snap.edge_count()),
              snap.is_mapped() ? "mmap" : "read fallback");
  std::printf("open %.6fs  bulk-load %.6fs  (graph: %u live nodes, %zu edges)\n",
              open_s, load_s, g.node_count(), g.edge_count());
  if (warm) {
    if (!snap.has_engine_state()) {
      std::fprintf(stderr, "error: %s: --warm needs a version-2+ snapshot "
                           "(save with --engine)\n",
                   in.c_str());
      return 1;
    }
    const auto t2 = Clock::now();
    const core::CascadeEngine e(graph::DynamicGraph::load(snap), snap, snap.priority_seed(),
                                graph::SnapshotLoad::kWarm);
    const double warm_s = seconds_since(t2);
    std::printf("warm engine-ready %.6fs  (|MIS| %zu, priority seed %llu, "
                "fingerprint %016llx, zero greedy recompute)\n",
                warm_s, e.mis_size(),
                static_cast<unsigned long long>(snap.priority_seed()),
                static_cast<unsigned long long>(core::fingerprint(e)));
  }
  return 0;
}

int cmd_verify(util::Cli& cli) {
  const auto in = cli.flag_string("in", "graph.snap", "snapshot or .trc trace path");
  cli.finish();

  std::string error;
  if (ends_with(in, ".trc")) {
    workload::TraceFile tf;
    if (!tf.open(in, &error) || !tf.verify(&error)) {
      std::fprintf(stderr, "FAIL: %s\n", error.c_str());
      return 1;
    }
    graph::DynamicGraph g;
    if (!tf.materialize(g, &error)) {
      std::fprintf(stderr, "FAIL: %s: %s\n", in.c_str(), error.c_str());
      return 1;
    }
    std::printf("OK: %s — %zu ops, %zu arena slots, checksum valid, every op "
                "valid (replays to %u nodes, %zu edges)\n",
                in.c_str(), tf.size(), tf.arena_len(), g.node_count(), g.edge_count());
    return 0;
  }
  graph::Snapshot snap;
  if (!snap.open(in, &error) || !snap.verify(&error)) {
    std::fprintf(stderr, "FAIL: %s\n", error.c_str());
    return 1;
  }
  if (snap.has_engine_state()) {
    std::printf("OK: %s — %u nodes, %llu edges, |MIS| %llu, checksum + deep "
                "consistency valid, membership is the greedy fixpoint of the "
                "persisted keys\n",
                in.c_str(), snap.node_count(),
                static_cast<unsigned long long>(snap.edge_count()),
                static_cast<unsigned long long>(snap.mis_size()));
    return 0;
  }
  std::printf("OK: %s — %u nodes, %llu edges, checksum + deep consistency valid\n",
              in.c_str(), snap.node_count(),
              static_cast<unsigned long long>(snap.edge_count()));
  return 0;
}

int cmd_stats(util::Cli& cli) {
  const auto in = cli.flag_string("in", "graph.snap", "snapshot input path");
  cli.finish();

  graph::Snapshot snap;
  std::string error;
  if (!snap.open(in, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const auto& h = snap.header();
  std::printf("%s (version %u, %s)\n", in.c_str(), h.version,
              snap.is_mapped() ? "mmap" : "read fallback");
  std::printf("  file size        %llu bytes\n",
              static_cast<unsigned long long>(h.file_size));
  // After open + validation: how much of the mapping the page cache holds
  // (== file size on the read fallback, which buffers everything).
  std::printf("  resident         %llu of %llu mapped bytes\n",
              static_cast<unsigned long long>(snap.resident_bytes()),
              static_cast<unsigned long long>(h.file_size));
  std::printf("  id bound         %u\n", h.id_bound);
  std::printf("  live nodes       %u\n", h.node_count);
  std::printf("  edges            %llu\n", static_cast<unsigned long long>(h.edge_count));
  if (snap.has_edge_table())
    std::printf("  edge table       %llu/%llu slots occupied (%llu live)\n",
                static_cast<unsigned long long>(h.edge_occupied),
                static_cast<unsigned long long>(h.edge_capacity),
                static_cast<unsigned long long>(h.edge_count));
  else
    std::printf("  edge table: none (v4)\n");
  std::printf("  sections         alive@%llu offsets@%llu neighbors@%llu",
              static_cast<unsigned long long>(h.alive_off),
              static_cast<unsigned long long>(h.offsets_off),
              static_cast<unsigned long long>(h.neighbors_off));
  if (snap.has_edge_table())
    std::printf(" ctrl@%llu keys@%llu", static_cast<unsigned long long>(h.edge_ctrl_off),
                static_cast<unsigned long long>(h.edge_keys_off));
  std::printf("\n");
  if (snap.has_engine_state()) {
    const auto& ext = snap.engine_ext();
    std::printf("  engine state     prio-keys@%llu membership@%llu\n",
                static_cast<unsigned long long>(ext.keys_off),
                static_cast<unsigned long long>(ext.membership_off));
    std::printf("  |MIS|            %llu  (priority seed %llu)\n",
                static_cast<unsigned long long>(ext.mis_size),
                static_cast<unsigned long long>(ext.priority_seed));
  }
  if (h.version == graph::kSnapshotVersionSharded)
    std::printf("  shard table      %u shards (v3, validated and ignored)\n",
                snap.shard_count());

  std::vector<std::size_t> degrees;
  degrees.reserve(snap.node_count());
  double deg_sum = 0;
  for (NodeId v = 0; v < snap.id_bound(); ++v) {
    if (!snap.alive(v)) continue;
    const std::uint32_t d = snap.degree(v);
    deg_sum += d;
    degrees.push_back(d);
  }
  const graph::DegreeTail tail = graph::degree_tail_from(std::move(degrees));
  std::printf("  degree           avg %.2f  p50 %zu  p90 %zu  p99 %zu  max %zu\n",
              snap.node_count() > 0 ? deg_sum / snap.node_count() : 0.0, tail.p50,
              tail.p90, tail.p99, tail.maximum);
  std::printf("  spilled-inline   %zu nodes past the %u-slot record (%.2f%%)\n",
              tail.spilled, graph::DynamicGraph::kInlineNeighbors,
              100.0 * tail.spilled_fraction);
  if (tail.tail_exponent > 0.0)
    std::printf("  tail exponent    %.2f (Hill MLE over %zu nodes with degree >= 5)\n",
                tail.tail_exponent, tail.tail_count);
  return 0;
}

int cmd_record(util::Cli& cli) {
  const auto out = cli.flag_string("out", "churn.trc", "binary trace output path");
  const auto n = static_cast<NodeId>(cli.flag_int("n", 100'000, "warm-start nodes"));
  const auto ops =
      static_cast<std::size_t>(cli.flag_int("ops", 100'000, "churn ops to record"));
  const auto deg = cli.flag_double("deg", 8.0, "warm-start average degree");
  const auto seed = static_cast<std::uint64_t>(cli.flag_int("seed", 42, "rng seed"));
  const auto p_abrupt =
      cli.flag_double("p-abrupt", 0.5, "abrupt fraction of deletions");
  cli.finish();

  util::Rng rng(seed);
  graph::DynamicGraph warm = graph::random_avg_degree(n, deg, rng);
  workload::Trace trace = workload::grow_trace(warm);
  workload::ChurnConfig config;
  config.p_abrupt = p_abrupt;
  workload::ChurnGenerator gen(std::move(warm), config, seed + 1);
  const workload::Trace churn = gen.generate(ops);
  trace.insert(trace.end(), churn.begin(), churn.end());

  std::string error;
  if (!workload::TraceFile::save(out, trace, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("recorded %s: %zu ops (%zu grow + %zu churn), self-contained\n",
              out.c_str(), trace.size(), trace.size() - churn.size(), churn.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <save|load|verify|stats|record> [flags]\n"
                 "run a subcommand with --help for its flags\n",
                 argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  util::Cli cli(argc - 1, argv + 1);
  if (cmd == "save") return cmd_save(cli);
  if (cmd == "load") return cmd_load(cli);
  if (cmd == "verify") return cmd_verify(cli);
  if (cmd == "stats") return cmd_stats(cli);
  if (cmd == "record") return cmd_record(cli);
  std::fprintf(stderr, "unknown subcommand '%s' (want save|load|verify|stats|record)\n",
               cmd.c_str());
  return 2;
}
