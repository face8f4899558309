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
// the JSON has been oracle-checked. Costs are bucketed exactly like
// bench_distributed_cost (graceful / node_insert / abrupt_node_delete with
// the mean min{log2 n, d(v*)} envelope), so scripts/check_bench.py gates the
// abrupt bucket against ENVELOPE_SLACK x envelope and the graceful means
// against the committed reference at the deterministic tolerance.
//
// The degree_tail column quantifies the engine cliff skew stresses:
// p50/p90/p99/max degree, Hill tail exponent, and the fraction of nodes
// past the 14-neighbor inline record.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
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
  std::string graph;
  std::string policy;
  NodeId n = 0;
  std::uint64_t ops = 0;
  double seconds = 0;
  bool verified = false;
  sim::CostReport total;
  MetricSummary rounds, broadcasts, messages, bits, adjustments;
  BucketSummary graceful, node_insert, abrupt_node_delete;
  graph::DegreeTail tail;   // post-churn topology shape
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
  workload::stream_churn(mis, *gen, ops, [&](const workload::CostSample& s) {
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
  r.graph = graph_name;
  r.policy = policy;
  r.n = n;
  r.ops = ops;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.verified = verify;
  r.total = total;
  r.rounds = summarize(rounds);
  r.broadcasts = summarize(broadcasts);
  r.messages = summarize(messages);
  r.bits = summarize(bits);
  r.adjustments = summarize(adjustments);
  r.graceful = graceful.summary();
  r.node_insert = node_insert.summary();
  r.abrupt_node_delete = abrupt_delete.summary();
  r.tail = graph::degree_tail(gen->graph());
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
                 "\"mean_envelope\": %.4f, \"mean_adjustments\": %.4f},\n",
                 static_cast<unsigned long long>(ad.count), ad.broadcasts, ad.degree,
                 ad.envelope, ad.adjustments);
    std::fprintf(f,
                 "      \"degree_tail\": {\"p50\": %zu, \"p90\": %zu, \"p99\": %zu, "
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
            r.graceful.broadcasts, r.abrupt_node_delete.broadcasts,
            r.abrupt_node_delete.envelope,
            static_cast<unsigned long long>(r.abrupt_node_delete.count),
            r.tail.p99, r.tail.maximum, r.tail.tail_exponent,
            100.0 * r.tail.spilled_fraction);
        std::fflush(stdout);
      }
    }
  }
  return write_json(out, results, deg, seed) ? 0 : 1;
}
