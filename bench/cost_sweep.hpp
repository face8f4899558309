// Per-change cost summary shared by bench_distributed_cost and bench_skew.
//
// Every change's CostReport is kept for percentile tails and bucketed by the
// paper's bound classes: "graceful" holds the change types with O(1)
// expected broadcasts (edge insertion, edge deletion in both modes, graceful
// node deletion, unmuting — Lemmas 9/10), "node_insert" the O(d(v*))
// insertions, and "abrupt_node_delete" the O(min{log n, d(v*)}) abrupt
// deletions (Lemma 13), for which the mean of that envelope over the
// observed victims is kept too. write_cost_json emits the fields
// scripts/check_bench.py gates for both benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "sim/cost_report.hpp"
#include "workload/distributed.hpp"

namespace dmis::bench {

struct MetricSummary {
  double mean = 0, p50 = 0, p95 = 0, p99 = 0, max = 0;
};

struct BucketSummary {
  std::uint64_t count = 0;
  double rounds = 0, broadcasts = 0, bits = 0, adjustments = 0;
  double degree = 0;    // node ops: mean d(v*)
  double envelope = 0;  // abrupt deletions: mean min{log2 n, d(v*)}
};

inline MetricSummary summarize(std::vector<std::uint64_t>& xs) {
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

/// One cell's stream, summarized: whole-stream totals, the percentile tail
/// of every measure, and the three bound-class buckets.
struct CostSummary {
  sim::CostReport total;  ///< whole-stream accumulation, emitted via to_json()
  MetricSummary rounds, broadcasts, messages, bits, adjustments;
  BucketSummary graceful, node_insert, abrupt_node_delete;
};

/// Collects the samples of one stream of `ops` changes on an n-node graph
/// (feed it from workload::stream_churn's sink).
class CostSweep {
 public:
  CostSweep(graph::NodeId n, std::uint64_t ops)
      : log_n_(std::log2(std::max<double>(2.0, static_cast<double>(n)))) {
    for (std::vector<std::uint64_t>* xs :
         {&rounds_, &broadcasts_, &messages_, &bits_, &adjustments_})
      xs->reserve(ops);
  }

  void add(const workload::CostSample& s) {
    total_ += s.cost;
    rounds_.push_back(s.cost.rounds);
    broadcasts_.push_back(s.cost.broadcasts);
    messages_.push_back(s.cost.messages);
    bits_.push_back(s.cost.bits);
    adjustments_.push_back(s.cost.adjustments);
    switch (s.kind) {
      case workload::OpKind::kAddNode:
        node_insert_.add(s, 0);
        break;
      case workload::OpKind::kRemoveNodeAbrupt:
        abrupt_delete_.add(s, std::min(log_n_, static_cast<double>(s.degree)));
        break;
      default:
        graceful_.add(s, 0);
        break;
    }
  }

  /// Sorts the recorded series in place: call once, after the stream.
  [[nodiscard]] CostSummary summary() {
    CostSummary c;
    c.total = total_;
    c.rounds = summarize(rounds_);
    c.broadcasts = summarize(broadcasts_);
    c.messages = summarize(messages_);
    c.bits = summarize(bits_);
    c.adjustments = summarize(adjustments_);
    c.graceful = graceful_.summary();
    c.node_insert = node_insert_.summary();
    c.abrupt_node_delete = abrupt_delete_.summary();
    return c;
  }

 private:
  double log_n_;
  sim::CostReport total_;
  std::vector<std::uint64_t> rounds_, broadcasts_, messages_, bits_, adjustments_;
  BucketAccum graceful_, node_insert_, abrupt_delete_;
};

inline void write_metric(std::FILE* f, const char* name, const MetricSummary& m) {
  std::fprintf(f,
               "      \"%s\": {\"mean\": %.4f, \"p50\": %.0f, \"p95\": %.0f, "
               "\"p99\": %.0f, \"max\": %.0f},\n",
               name, m.mean, m.p50, m.p95, m.p99, m.max);
}

/// The cost fields of one result object, from "total" through the closing
/// brace of the "abrupt_node_delete" bucket (no separator or newline after
/// it: the caller closes or continues the object).
inline void write_cost_json(std::FILE* f, const CostSummary& c) {
  std::fprintf(f, "      \"total\": %s,\n", c.total.to_json().c_str());
  write_metric(f, "rounds", c.rounds);
  write_metric(f, "broadcasts", c.broadcasts);
  write_metric(f, "messages", c.messages);
  write_metric(f, "bits", c.bits);
  write_metric(f, "adjustments", c.adjustments);
  const BucketSummary& g = c.graceful;
  std::fprintf(f,
               "      \"graceful\": {\"count\": %llu, \"mean_rounds\": %.4f, "
               "\"mean_broadcasts\": %.4f, \"mean_bits\": %.2f, "
               "\"mean_adjustments\": %.4f},\n",
               static_cast<unsigned long long>(g.count), g.rounds, g.broadcasts, g.bits,
               g.adjustments);
  const BucketSummary& ni = c.node_insert;
  std::fprintf(f,
               "      \"node_insert\": {\"count\": %llu, \"mean_broadcasts\": %.4f, "
               "\"mean_degree\": %.4f, \"mean_adjustments\": %.4f},\n",
               static_cast<unsigned long long>(ni.count), ni.broadcasts, ni.degree,
               ni.adjustments);
  const BucketSummary& ad = c.abrupt_node_delete;
  std::fprintf(f,
               "      \"abrupt_node_delete\": {\"count\": %llu, "
               "\"mean_broadcasts\": %.4f, \"mean_degree\": %.4f, "
               "\"mean_envelope\": %.4f, \"mean_adjustments\": %.4f}",
               static_cast<unsigned long long>(ad.count), ad.broadcasts, ad.degree,
               ad.envelope, ad.adjustments);
}

}  // namespace dmis::bench
