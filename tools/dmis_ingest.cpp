// dmis_ingest — convert a real-world SNAP edge list into a replayable
// binary trace (workload::TraceFile).
//
//   dmis_ingest --in edges.txt --out real.trc
//               [--churn-ops K --policy uniform|hub-kill|burst-mute|flash-crowd]
//               [--seed S] [--p-abrupt X] [--verify]
//
// The input is one edge per line ("u v", arbitrary integer ids, '#'/'%'
// comments — the format SNAP datasets ship in). Ids are densified in
// first-appearance order, the graph's canonical grow history becomes the
// trace prefix, and with --churn-ops an adversarial churn suffix is
// appended so the real topology can be replayed *and then attacked* through
// any engine (`dmis_snapshot save --trace` and `verify` accept the output).
// --verify re-opens the written file, checks its checksum, replays it
// through TraceFile::materialize (every op checked) and requires the
// result to equal the final graph.
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "graph/graph_stats.hpp"
#include "util/cli.hpp"
#include "workload/churn.hpp"
#include "workload/edge_list.hpp"
#include "workload/skewed.hpp"
#include "workload/trace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace dmis;

void print_tail(const graph::DynamicGraph& g, const char* label) {
  const graph::DegreeTail tail = graph::degree_tail(g);
  std::printf("%s: %u nodes, %zu edges  degree p50 %zu p90 %zu p99 %zu max %zu",
              label, g.node_count(), g.edge_count(), tail.p50, tail.p90, tail.p99,
              tail.maximum);
  if (tail.tail_exponent > 0.0)
    std::printf("  tail-exponent %.2f", tail.tail_exponent);
  std::printf("  spilled-inline %.2f%%\n", 100.0 * tail.spilled_fraction);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto in = cli.flag_string("in", "", "SNAP edge-list input path");
  const auto out = cli.flag_string("out", "real.trc", "binary trace output path");
  const auto churn_ops = static_cast<std::size_t>(
      cli.flag_int("churn-ops", 0, "churn ops to append after the grow prefix"));
  const auto policy_name = cli.flag_string(
      "policy", "hub-kill",
      "churn policy for --churn-ops: uniform|hub-kill|burst-mute|flash-crowd");
  const auto seed = static_cast<std::uint64_t>(cli.flag_int("seed", 42, "rng seed"));
  const auto p_abrupt =
      cli.flag_double("p-abrupt", 0.5, "abrupt fraction of deletions");
  const bool verify = cli.flag_bool(
      "verify", false, "re-open the written trace and check the round-trip");
  cli.finish();

  if (in.empty()) {
    std::fprintf(stderr, "error: --in is required (a SNAP edge-list file)\n");
    return 2;
  }

  graph::DynamicGraph g;
  workload::EdgeListStats stats;
  std::string error;
  if (!workload::read_edge_list_file(in, g, &stats, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("parsed %s: %zu lines (%zu comments), %zu edges kept "
              "(%zu self-loops, %zu duplicates skipped)\n",
              in.c_str(), stats.lines, stats.comments, stats.edges,
              stats.self_loops, stats.duplicates);
  print_tail(g, "ingested graph");

  workload::Trace trace = workload::grow_trace(g);
  const std::size_t grow_ops = trace.size();
  graph::DynamicGraph final_graph = g;
  if (churn_ops > 0) {
    workload::Trace churn;
    if (policy_name == "uniform") {
      workload::ChurnConfig config;
      config.p_abrupt = p_abrupt;
      workload::ChurnGenerator gen(std::move(g), config, seed);
      churn = gen.generate(churn_ops);
      final_graph = gen.graph();
    } else {
      workload::SkewedChurnConfig config;
      config.p_abrupt = p_abrupt;
      if (policy_name == "hub-kill") {
        config.policy = workload::ChurnPolicy::kHubKill;
      } else if (policy_name == "burst-mute") {
        config.policy = workload::ChurnPolicy::kBurstMute;
      } else if (policy_name == "flash-crowd") {
        config.policy = workload::ChurnPolicy::kFlashCrowd;
      } else {
        std::fprintf(stderr, "error: unknown --policy '%s'\n", policy_name.c_str());
        return 2;
      }
      workload::SkewedChurnGenerator gen(std::move(g), config, seed);
      churn = gen.generate(churn_ops);
      final_graph = gen.graph();
    }
    trace.insert(trace.end(), churn.begin(), churn.end());
  }

  if (!workload::TraceFile::save(out, trace, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu ops (%zu grow + %zu %s churn)\n", out.c_str(),
              trace.size(), grow_ops, trace.size() - grow_ops,
              churn_ops > 0 ? policy_name.c_str() : "no");
  if (churn_ops > 0) print_tail(final_graph, "post-churn graph");

  if (verify) {
    workload::TraceFile tf;
    graph::DynamicGraph replayed;
    if (!tf.open(out, &error) || !tf.verify(&error) || !tf.materialize(replayed, &error)) {
      std::fprintf(stderr, "FAIL: %s\n", error.c_str());
      return 1;
    }
    if (replayed != final_graph) {
      std::fprintf(stderr, "FAIL: round-trip mismatch — the replayed graph differs "
                           "from the final graph\n");
      return 1;
    }
    std::printf("verify OK: checksum valid, replay reproduces the final graph\n");
  }
  return 0;
}
