// Random churn workloads: sequences of topology changes against an evolving
// graph, as a dynamic-network driver for tests and benches.
//
// The paper's guarantees are per-change and hold for *any* change sequence
// under an oblivious adversary; the churn generator provides a natural
// "average" workload (random edge/node insertions and deletions with
// configurable mix) to measure expectations over many changes, while
// workload/skewed.hpp provides hub-centric and correlated adversarial
// policies and adversarial.hpp the paper's worst-case constructions.
//
// TraceGenerator is the shared chassis: every generator that emits a stream
// of valid-by-construction GraphOps derives from it and reuses the evolving
// reference graph, the seeded RNG and the O(1) live-node index instead of
// forking its own copies of that plumbing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace dmis::workload {

/// Base class for streaming trace generators.
///
/// Owns the evolving reference graph (so every emitted op is valid at its
/// position: edges to remove exist, nodes to delete are live), the generator
/// RNG, and a dense live-node index maintained by swap-erase so uniform node
/// sampling stays O(1) even when deletions make live ids sparse in the
/// never-reused id space.
///
/// Seeding contract (all derived generators): the op stream is a pure
/// function of (initial graph, config, seed). Every random draw flows
/// through the single protected `rng_`, which is seeded once from the
/// constructor's 64-bit seed and never reseeded; generators consume a
/// bounded number of draws per emitted op and draw nothing outside next().
/// Two generators constructed with equal arguments therefore emit identical
/// op sequences on every platform (util::Rng is xoshiro256**, fully
/// portable), which is what lets benches re-derive a workload instead of
/// shipping it, and lets TraceFile round-trips be checked bit-for-bit.
class TraceGenerator {
 public:
  TraceGenerator(graph::DynamicGraph initial, std::uint64_t seed)
      : g_(std::move(initial)), rng_(seed) {
    live_ = g_.nodes();
    pos_.assign(g_.id_bound(), kNoPos);
    for (std::size_t i = 0; i < live_.size(); ++i) pos_[live_[i]] = i;
  }
  virtual ~TraceGenerator() = default;

  TraceGenerator(const TraceGenerator&) = delete;
  TraceGenerator& operator=(const TraceGenerator&) = delete;

  /// Produce the next valid op and apply it to the internal graph.
  [[nodiscard]] virtual GraphOp next() = 0;

  /// Produce a whole trace of `count` ops.
  [[nodiscard]] Trace generate(std::size_t count) {
    Trace trace;
    trace.reserve(count);
    for (std::size_t i = 0; i < count; ++i) trace.push_back(next());
    return trace;
  }

  [[nodiscard]] const graph::DynamicGraph& graph() const noexcept { return g_; }

 protected:
  /// A uniformly random live node — O(1) via the maintained live list.
  [[nodiscard]] NodeId random_node();

  /// A live node sampled proportionally to its degree (a uniform endpoint of
  /// a uniform edge), or a uniform node if the graph is edgeless. This is
  /// the preferential-attachment target sampler the skewed generators use.
  [[nodiscard]] NodeId preferential_node();

  /// The live node of maximum degree (ties broken toward the smallest id).
  /// O(live) scan — callers amortize it over a policy cycle, not per op.
  [[nodiscard]] NodeId max_degree_node() const;

  /// A uniformly random present edge; false iff the graph is edgeless.
  [[nodiscard]] bool random_edge(NodeId& u, NodeId& v);

  /// A uniformly random absent pair (rejection sampling; false if the graph
  /// is too dense to find one quickly).
  [[nodiscard]] bool random_non_edge(NodeId& u, NodeId& v);

  /// Emit-and-apply helpers: each builds the op, applies it to the internal
  /// graph and maintains the live index, so derived policies cannot let the
  /// reference graph and the emitted stream drift apart.
  [[nodiscard]] GraphOp emit_add_node(std::vector<NodeId> neighbors, bool unmute);
  [[nodiscard]] GraphOp emit_remove_node(NodeId v, bool abrupt);
  [[nodiscard]] GraphOp emit_add_edge(NodeId u, NodeId v);
  [[nodiscard]] GraphOp emit_remove_edge(NodeId u, NodeId v, bool abrupt);

  [[nodiscard]] std::size_t live_count() const noexcept { return live_.size(); }

  graph::DynamicGraph g_;
  util::Rng rng_;

 private:
  void track_add(NodeId v);
  void track_remove(NodeId v);

  static constexpr std::size_t kNoPos = ~static_cast<std::size_t>(0);
  std::vector<NodeId> live_;
  std::vector<std::size_t> pos_;  // id → position in live_
};

/// The op mix. Each op draws a kind with these weights; a draw past their
/// sum (a mix summing below 1) and a kind that cannot apply (no edge to
/// remove, no non-edge found, one node left to remove) are drawn again, and
/// next() aborts when no kind with weight can apply at all.
struct ChurnConfig {
  double p_add_edge = 0.35;
  double p_remove_edge = 0.35;
  double p_add_node = 0.15;
  double p_remove_node = 0.15;
  /// New nodes attach to this many uniformly random existing nodes.
  std::uint32_t attach_degree = 3;
  /// Deletions are abrupt with this probability (else graceful).
  double p_abrupt = 0.5;
  /// Node insertions arrive as unmutes with this probability.
  double p_unmute = 0.0;
};

/// The uniform ("natural average") churn generator: each op's kind is drawn
/// from the configured mix, and all endpoints are sampled uniformly.
class ChurnGenerator final : public TraceGenerator {
 public:
  ChurnGenerator(graph::DynamicGraph initial, ChurnConfig config, std::uint64_t seed)
      : TraceGenerator(std::move(initial), seed), config_(config) {}

  [[nodiscard]] GraphOp next() override;

 private:
  ChurnConfig config_;
};

}  // namespace dmis::workload
