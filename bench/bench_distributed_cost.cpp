// E15 — distributed per-change cost at scale: Theorem 7's measures sweep
// n ∈ {1e3, 1e4, 1e5, 1e6} over four workload mixes, on the flat simulated
// broadcast network.
//
// Workloads (all valid-by-construction streams from workload::ChurnGenerator
// against an avg-degree-8 random base graph):
//   * churn         — balanced insert/delete mix, half the deletions abrupt;
//   * insert-heavy  — mostly edge/node insertions into a growing graph;
//   * delete-heavy  — mostly removals from a warm graph;
//   * abrupt-delete — node-deletion-heavy with every deletion abrupt
//                     (the Lemma 13 stress case).
//
// Every change's CostReport is recorded and bucketed by the paper's bound
// classes (bench/cost_sweep.hpp, shared with bench_skew): "graceful" holds
// the change types with O(1) expected broadcasts (edge insertion, edge
// deletion in both modes, graceful node deletion, unmuting — Lemmas 9/10),
// "node_insert" the O(d(v*)) insertions, and "abrupt_node_delete" the
// O(min{log n, d(v*)}) abrupt deletions, for which the mean of that
// envelope over the observed victims is also emitted. The
// output JSON (default BENCH_distributed_cost.json) carries full percentile
// tails for every measure plus the per-bucket means — flat-across-n graceful
// columns are the paper's O(1) claims made machine-checkable; future PRs
// quote this file alongside BENCH_update_latency.json.
//
// The engine is verified against the sequential random-greedy oracle once
// per cell (after the stream), so a full sweep doubles as a correctness run
// at 10^6 nodes.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/dist_mis.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/distributed.hpp"

#include "cost_sweep.hpp"

namespace {

using namespace dmis;
using graph::NodeId;

struct Result {
  std::string workload;
  NodeId n = 0;
  std::uint64_t ops = 0;
  double seconds = 0;
  bench::CostSummary cost;
};

workload::ChurnConfig workload_config(const std::string& name) {
  workload::ChurnConfig cfg;
  if (name == "churn") {
    cfg = {0.35, 0.35, 0.15, 0.15, 3, 0.5, 0.1};
  } else if (name == "insert-heavy") {
    cfg = {0.60, 0.10, 0.25, 0.05, 4, 0.5, 0.1};
  } else if (name == "delete-heavy") {
    cfg = {0.10, 0.60, 0.05, 0.25, 4, 0.5, 0.0};
  } else {  // abrupt-delete: every deletion abrupt, node-deletion heavy
    cfg = {0.25, 0.25, 0.15, 0.35, 4, 1.0, 0.0};
  }
  return cfg;
}

Result run_cell(const std::string& workload, NodeId n, double deg, std::uint64_t ops,
                std::uint64_t seed, bool verify) {
  util::Rng graph_rng(seed ^ (static_cast<std::uint64_t>(n) * 0x9e37U));
  const auto g = graph::random_avg_degree(n, deg, graph_rng);
  core::DistMis mis(g, seed * 31 + n);
  workload::ChurnGenerator gen(g, workload_config(workload), seed * 17 + 5);

  bench::CostSweep sweep(n, ops);
  const auto t0 = std::chrono::steady_clock::now();
  workload::stream_churn(mis, gen, ops,
                         [&sweep](const workload::CostSample& s) { sweep.add(s); });
  const auto t1 = std::chrono::steady_clock::now();
  if (verify) mis.verify();

  Result r;
  r.workload = workload;
  r.n = n;
  r.ops = ops;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.cost = sweep.summary();
  return r;
}

bool write_json(const std::string& path, const std::vector<Result>& results,
                double deg, std::uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"distributed_cost\",\n");
  std::fprintf(f,
               "  \"config\": {\"deg\": %.1f, \"seed\": %llu, "
               "\"hardware_concurrency\": %u},\n",
               deg, static_cast<unsigned long long>(seed),
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f, "    {\"workload\": \"%s\", \"n\": %u, \"ops\": %llu, "
                 "\"seconds\": %.3f,\n",
                 r.workload.c_str(), r.n, static_cast<unsigned long long>(r.ops),
                 r.seconds);
    bench::write_cost_json(f, r.cost);
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
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
      cli.flag_int("ops", 2'000, "topology changes per (workload, n) cell"));
  const auto seed = static_cast<std::uint64_t>(cli.flag_int("seed", 42, "base seed"));
  const auto deg = cli.flag_double("deg", 8.0, "average degree of the base graph");
  const auto sizes = cli.flag_int_list("sizes", "1000,10000,100000,1000000", 2,
                                       "node counts, comma-separated");
  const auto workloads =
      cli.flag_list("workloads", "churn,insert-heavy,delete-heavy,abrupt-delete",
                    "workload mixes, comma-separated");
  const bool verify =
      cli.flag_bool("verify", true, "check each cell against the greedy oracle");
  const auto out = cli.flag_string("out", "BENCH_distributed_cost.json",
                                   "machine-readable output path");
  cli.finish();


  std::vector<Result> results;
  for (const std::string& workload : workloads) {
    for (const std::int64_t n : sizes) {
      const Result r = run_cell(workload, static_cast<NodeId>(n), deg, ops, seed, verify);
      results.push_back(r);
      std::printf(
          "%-13s n=%-8u ops=%-6llu %6.2fs  graceful: bcast=%.2f adj=%.2f rounds=%.2f"
          "  abrupt-del: bcast=%.2f env=%.2f (x%llu)\n",
          r.workload.c_str(), r.n, static_cast<unsigned long long>(r.ops), r.seconds,
          r.cost.graceful.broadcasts, r.cost.graceful.adjustments, r.cost.graceful.rounds,
          r.cost.abrupt_node_delete.broadcasts, r.cost.abrupt_node_delete.envelope,
          static_cast<unsigned long long>(r.cost.abrupt_node_delete.count));
      std::fflush(stdout);
    }
  }
  return write_json(out, results, deg, seed) ? 0 : 1;
}
