// E17 — skewed-graph / adversarial-churn cost sweep: Theorem 7's measures
// on heavy-tailed topologies under hub-targeting churn, the regime where
// min{log n, d(v*)} (Lemma 13) actually separates from d(v*).
//
// Grid: graph distribution x churn policy x n. Distributions:
//   * ba        — Barabási–Albert preferential attachment (attach 4);
//   * chung-lu  — Chung-Lu expected-degree power law (tail exponent 2.5);
//   * planted   — planted partition, 16 communities, assortative;
//   * uniform   — G(n, m) at the same average degree (the control row).
// Policies (workload::SkewedChurnGenerator unless noted):
//   * hub-kill     — repeatedly abrupt-delete the max-degree node, refilling
//                    with preferential inserts (Lemma 13 on hubs);
//   * burst-mute   — delete a whole hub neighborhood back-to-back
//                    (correlated failures, overlapping cascades);
//   * flash-crowd  — insert storms aimed at one hub, sometimes followed by
//                    its abrupt collapse (O(d) insert + min{log n, d} delete);
//   * churn        — workload::ChurnGenerator's balanced uniform mix (the
//                    control column).
//
// Every cell streams its ops through core::DistMis and is verified against
// the sequential random-greedy oracle after the stream — a cell that reaches
// the JSON has been oracle-checked. Costs are bucketed by the code
// bench_distributed_cost uses (bench/cost_sweep.hpp: graceful /
// node_insert / abrupt_node_delete with the mean min{log2 n, d(v*)}
// envelope), so scripts/check_bench.py gates the abrupt bucket against
// ENVELOPE_SLACK x envelope and the graceful means against the committed
// reference at the deterministic tolerance.
//
// The degree_tail column quantifies the engine cliff skew stresses:
// p50/p90/p99/max degree, Hill tail exponent, and the fraction of nodes
// past the 14-neighbor inline record.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dist_mis.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/distributed.hpp"
#include "workload/skewed.hpp"

#include "cost_sweep.hpp"

namespace {

using namespace dmis;
using graph::NodeId;

struct Result {
  std::string graph;
  std::string policy;
  NodeId n = 0;
  std::uint64_t ops = 0;
  double seconds = 0;
  bool verified = false;
  bench::CostSummary cost;
  graph::DegreeTail tail;   // post-churn topology shape
};

graph::DynamicGraph build_graph(const std::string& name, NodeId n, double deg,
                                util::Rng& rng) {
  if (name == "ba") return graph::barabasi_albert(n, 4, rng);
  if (name == "chung-lu") return graph::chung_lu(n, 2.5, deg, rng);
  if (name == "planted") {
    // 16 communities, ~3/4 of the degree intra-block, p scaled so the
    // average degree tracks `deg` across n.
    const NodeId c = 16;
    const double block = static_cast<double>(n) / static_cast<double>(c);
    const double p_in = std::min(1.0, 0.75 * deg / std::max(1.0, block - 1.0));
    const double p_out =
        std::min(p_in, 0.25 * deg / std::max(1.0, static_cast<double>(n) - block));
    return graph::planted_partition(n, c, p_in, p_out, rng);
  }
  if (name == "uniform") return graph::random_avg_degree(n, deg, rng);
  std::fprintf(stderr, "unknown graph distribution '%s' "
               "(want ba|chung-lu|planted|uniform)\n", name.c_str());
  std::exit(2);
}

Result run_cell(const std::string& graph_name, const std::string& policy, NodeId n,
                double deg, std::uint64_t ops, std::uint64_t seed, bool verify) {
  util::Rng graph_rng(seed ^ (static_cast<std::uint64_t>(n) * 0x9e37U));
  const auto g = build_graph(graph_name, n, deg, graph_rng);
  core::DistMis mis(g, seed * 31 + n);

  std::unique_ptr<workload::TraceGenerator> gen;
  if (policy == "churn") {
    workload::ChurnConfig cfg{0.35, 0.35, 0.15, 0.15, 3, 0.5, 0.1};
    gen = std::make_unique<workload::ChurnGenerator>(g, cfg, seed * 17 + 5);
  } else {
    workload::SkewedChurnConfig cfg;
    if (policy == "hub-kill") {
      cfg.policy = workload::ChurnPolicy::kHubKill;
    } else if (policy == "burst-mute") {
      cfg.policy = workload::ChurnPolicy::kBurstMute;
    } else if (policy == "flash-crowd") {
      cfg.policy = workload::ChurnPolicy::kFlashCrowd;
    } else {
      std::fprintf(stderr, "unknown churn policy '%s' "
                   "(want hub-kill|burst-mute|flash-crowd|churn)\n", policy.c_str());
      std::exit(2);
    }
    gen = std::make_unique<workload::SkewedChurnGenerator>(g, cfg, seed * 17 + 5);
  }

  bench::CostSweep sweep(n, ops);
  const auto t0 = std::chrono::steady_clock::now();
  workload::stream_churn(mis, *gen, ops,
                         [&sweep](const workload::CostSample& s) { sweep.add(s); });
  const auto t1 = std::chrono::steady_clock::now();
  if (verify) mis.verify();

  Result r;
  r.graph = graph_name;
  r.policy = policy;
  r.n = n;
  r.ops = ops;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.verified = verify;
  r.cost = sweep.summary();
  r.tail = graph::degree_tail(gen->graph());
  return r;
}

bool write_json(const std::string& path, const std::vector<Result>& results,
                double deg, std::uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"skew\",\n");
  std::fprintf(f,
               "  \"config\": {\"deg\": %.1f, \"seed\": %llu, "
               "\"hardware_concurrency\": %u},\n",
               deg, static_cast<unsigned long long>(seed),
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"graph\": \"%s\", \"policy\": \"%s\", \"n\": %u, "
                 "\"ops\": %llu, \"seconds\": %.3f, \"verified\": %s,\n",
                 r.graph.c_str(), r.policy.c_str(), r.n,
                 static_cast<unsigned long long>(r.ops), r.seconds,
                 r.verified ? "true" : "false");
    bench::write_cost_json(f, r.cost);
    std::fprintf(f,
                 ",\n      \"degree_tail\": {\"p50\": %zu, \"p90\": %zu, \"p99\": %zu, "
                 "\"max\": %zu, \"spilled_fraction\": %.4f, "
                 "\"tail_exponent\": %.3f}}%s\n",
                 r.tail.p50, r.tail.p90, r.tail.p99, r.tail.maximum,
                 r.tail.spilled_fraction, r.tail.tail_exponent,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto ops = static_cast<std::uint64_t>(
      cli.flag_int("ops", 2'000, "topology changes per (graph, policy, n) cell"));
  const auto seed = static_cast<std::uint64_t>(cli.flag_int("seed", 42, "base seed"));
  const auto deg =
      cli.flag_double("deg", 8.0, "average degree target for the base graphs");
  const auto sizes =
      cli.flag_int_list("sizes", "1000,10000", 8, "node counts, comma-separated");
  const auto graphs = cli.flag_list("graphs", "ba,chung-lu,planted,uniform",
                                    "graph distributions, comma-separated");
  const auto policies = cli.flag_list("policies", "hub-kill,burst-mute,flash-crowd,churn",
                                      "churn policies, comma-separated");
  const bool verify =
      cli.flag_bool("verify", true, "check each cell against the greedy oracle");
  const auto out =
      cli.flag_string("out", "BENCH_skew.json", "machine-readable output path");
  cli.finish();


  std::vector<Result> results;
  for (const std::string& graph_name : graphs) {
    for (const std::string& policy : policies) {
      for (const std::int64_t n : sizes) {
        const Result r =
            run_cell(graph_name, policy, static_cast<NodeId>(n), deg, ops, seed, verify);
        results.push_back(r);
        std::printf(
            "%-9s %-12s n=%-7u %6.2fs  graceful: bcast=%.2f  abrupt-del: "
            "bcast=%.2f env=%.2f (x%llu)  tail: p99=%zu max=%zu a=%.2f  "
            "spill=%.1f%%\n",
            r.graph.c_str(), r.policy.c_str(), r.n, r.seconds,
            r.cost.graceful.broadcasts, r.cost.abrupt_node_delete.broadcasts,
            r.cost.abrupt_node_delete.envelope,
            static_cast<unsigned long long>(r.cost.abrupt_node_delete.count),
            r.tail.p99, r.tail.maximum, r.tail.tail_exponent,
            100.0 * r.tail.spilled_fraction);
        std::fflush(stdout);
      }
    }
  }
  return write_json(out, results, deg, seed) ? 0 : 1;
}
