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
// classes: "graceful" holds the change types with O(1) expected broadcasts
// (edge insertion, edge deletion in both modes, graceful node deletion,
// unmuting — Lemmas 9/10), "node_insert" the O(d(v*)) insertions, and
// "abrupt_node_delete" the O(min{log n, d(v*)}) abrupt deletions, for which
// the mean of that envelope over the observed victims is also emitted. The
// output JSON (default BENCH_distributed_cost.json) carries full percentile
// tails for every measure plus the per-bucket means — flat-across-n graceful
// columns are the paper's O(1) claims made machine-checkable; future PRs
// quote this file alongside BENCH_update_latency.json.
//
// The engine is verified against the sequential random-greedy oracle once
// per cell (after the stream), so a full sweep doubles as a correctness run
// at 10^6 nodes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/dist_mis.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/distributed.hpp"

namespace {

using namespace dmis;
using graph::NodeId;
using workload::OpKind;

struct MetricSummary {
  double mean = 0, p50 = 0, p95 = 0, p99 = 0, max = 0;
};

struct BucketSummary {
  std::uint64_t count = 0;
  double rounds = 0, broadcasts = 0, bits = 0, adjustments = 0;
  double degree = 0;    // node ops: mean d(v*)
  double envelope = 0;  // abrupt deletions: mean min{log2 n, d(v*)}
};

struct Result {
  std::string workload;
  NodeId n = 0;
  std::uint64_t ops = 0;
  double seconds = 0;
  sim::CostReport total;  ///< whole-stream accumulation, emitted via to_json()
  MetricSummary rounds, broadcasts, messages, bits, adjustments;
  BucketSummary graceful, node_insert, abrupt_node_delete;
};

MetricSummary summarize(std::vector<std::uint64_t>& xs) {
  MetricSummary m;
  if (xs.empty()) return m;
  double total = 0;
  for (const auto x : xs) total += static_cast<double>(x);
  m.mean = total / static_cast<double>(xs.size());
  std::sort(xs.begin(), xs.end());
  const auto at = [&xs](double p) {
    const auto idx = static_cast<std::size_t>(p * static_cast<double>(xs.size() - 1));
    return static_cast<double>(xs[idx]);
  };
  m.p50 = at(0.50);
  m.p95 = at(0.95);
  m.p99 = at(0.99);
  m.max = static_cast<double>(xs.back());
  return m;
}

struct BucketAccum {
  std::uint64_t count = 0;
  double rounds = 0, broadcasts = 0, bits = 0, adjustments = 0;
  double degree = 0, envelope = 0;

  void add(const workload::CostSample& s, double env) {
    ++count;
    rounds += static_cast<double>(s.cost.rounds);
    broadcasts += static_cast<double>(s.cost.broadcasts);
    bits += static_cast<double>(s.cost.bits);
    adjustments += static_cast<double>(s.cost.adjustments);
    degree += static_cast<double>(s.degree);
    envelope += env;
  }

  [[nodiscard]] BucketSummary summary() const {
    BucketSummary b;
    b.count = count;
    if (count == 0) return b;
    const auto c = static_cast<double>(count);
    b.rounds = rounds / c;
    b.broadcasts = broadcasts / c;
    b.bits = bits / c;
    b.adjustments = adjustments / c;
    b.degree = degree / c;
    b.envelope = envelope / c;
    return b;
  }
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

  std::vector<std::uint64_t> rounds, broadcasts, messages, bits, adjustments;
  rounds.reserve(ops);
  broadcasts.reserve(ops);
  messages.reserve(ops);
  bits.reserve(ops);
  adjustments.reserve(ops);
  BucketAccum graceful, node_insert, abrupt_delete;
  const double log_n = std::log2(std::max<double>(2.0, static_cast<double>(n)));

  sim::CostReport total;
  const auto t0 = std::chrono::steady_clock::now();
  workload::stream_churn(mis, gen, ops, [&](const workload::CostSample& s) {
    total += s.cost;
    rounds.push_back(s.cost.rounds);
    broadcasts.push_back(s.cost.broadcasts);
    messages.push_back(s.cost.messages);
    bits.push_back(s.cost.bits);
    adjustments.push_back(s.cost.adjustments);
    switch (s.kind) {
      case OpKind::kAddNode:
        node_insert.add(s, 0);
        break;
      case OpKind::kRemoveNodeAbrupt:
        abrupt_delete.add(s, std::min(log_n, static_cast<double>(s.degree)));
        break;
      default:
        graceful.add(s, 0);
        break;
    }
  });
  const auto t1 = std::chrono::steady_clock::now();
  if (verify) mis.verify();

  Result r;
  r.workload = workload;
  r.n = n;
  r.ops = ops;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.total = total;
  r.rounds = summarize(rounds);
  r.broadcasts = summarize(broadcasts);
  r.messages = summarize(messages);
  r.bits = summarize(bits);
  r.adjustments = summarize(adjustments);
  r.graceful = graceful.summary();
  r.node_insert = node_insert.summary();
  r.abrupt_node_delete = abrupt_delete.summary();
  return r;
}

void write_metric(std::FILE* f, const char* name, const MetricSummary& m,
                  const char* trailer) {
  std::fprintf(f,
               "      \"%s\": {\"mean\": %.4f, \"p50\": %.0f, \"p95\": %.0f, "
               "\"p99\": %.0f, \"max\": %.0f}%s\n",
               name, m.mean, m.p50, m.p95, m.p99, m.max, trailer);
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
    std::fprintf(f, "      \"total\": %s,\n", r.total.to_json().c_str());
    write_metric(f, "rounds", r.rounds, ",");
    write_metric(f, "broadcasts", r.broadcasts, ",");
    write_metric(f, "messages", r.messages, ",");
    write_metric(f, "bits", r.bits, ",");
    write_metric(f, "adjustments", r.adjustments, ",");
    const BucketSummary& g = r.graceful;
    std::fprintf(f,
                 "      \"graceful\": {\"count\": %llu, \"mean_rounds\": %.4f, "
                 "\"mean_broadcasts\": %.4f, \"mean_bits\": %.2f, "
                 "\"mean_adjustments\": %.4f},\n",
                 static_cast<unsigned long long>(g.count), g.rounds, g.broadcasts,
                 g.bits, g.adjustments);
    const BucketSummary& ni = r.node_insert;
    std::fprintf(f,
                 "      \"node_insert\": {\"count\": %llu, \"mean_broadcasts\": %.4f, "
                 "\"mean_degree\": %.4f, \"mean_adjustments\": %.4f},\n",
                 static_cast<unsigned long long>(ni.count), ni.broadcasts, ni.degree,
                 ni.adjustments);
    const BucketSummary& ad = r.abrupt_node_delete;
    std::fprintf(f,
                 "      \"abrupt_node_delete\": {\"count\": %llu, "
                 "\"mean_broadcasts\": %.4f, \"mean_degree\": %.4f, "
                 "\"mean_envelope\": %.4f, \"mean_adjustments\": %.4f}}%s\n",
                 static_cast<unsigned long long>(ad.count), ad.broadcasts, ad.degree,
                 ad.envelope, ad.adjustments, i + 1 < results.size() ? "," : "");
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
          r.graceful.broadcasts, r.graceful.adjustments, r.graceful.rounds,
          r.abrupt_node_delete.broadcasts, r.abrupt_node_delete.envelope,
          static_cast<unsigned long long>(r.abrupt_node_delete.count));
      std::fflush(stdout);
    }
  }
  return write_json(out, results, deg, seed) ? 0 : 1;
}
