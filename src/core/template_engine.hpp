// TemplateEngine — a literal implementation of the paper's Algorithm 1
// ("A Template for Maintaining a Maximal Independent Set", §3).
//
// After a topology change with changed node v*, the template propagates local
// corrections of the MIS invariant through the level sets of Eq. (1):
//
//   S_0 = {v*}  (iff the invariant broke at v*; otherwise S = ∅)
//   S_i = {u in M  : S_{i-1} ∩ I_π(u) ≠ ∅}
//       ∪ {u in M̄ : every v ∈ I_π(u) ∩ M lies in S_0 ∪ … ∪ S_{i-1}}
//
// where I_π(u) are u's earlier-ordered neighbors and M/M̄ are the *evolving*
// states as updates are applied (the paper's worked example — u2 ∈ S_1 and
// S_4 — requires this reading; see DESIGN.md). Two disambiguations, both
// taken from Algorithm 2's event-driven triggers and validated empirically
// against Theorem 1 (E[|S|] ≤ 1):
//   * propagation is driven by actual state *changes* ("…whose state we must
//     subsequently change as a result of the state change of v*"), and
//   * the M̄-rule requires that *no* earlier neighbor is currently in M
//     (rule 2's "all other w ∈ I_π(v) are not in M") — an influenced blocker
//     that returned to M re-blocks.
// A node may appear in several levels and is re-evaluated at every
// membership, reproducing the "direct implementation" whose broadcast count
// can exceed |S| (§4 opening).
//
// The engine exists to *measure* the quantities Theorem 1 and Corollary 6
// reason about: |S| (distinct influenced nodes), Σ|S_i| (total memberships =
// state updates of the direct implementation), the number of levels (= rounds
// of the direct distributed implementation), and the realized adjustments.
// CascadeEngine computes the same final MIS asymptotically faster and is the
// production path; the two are cross-checked by tests.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/membership.hpp"
#include "core/priority.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/node_set.hpp"

namespace dmis::core {

struct TemplateReport {
  /// Did the invariant break at v* (S non-empty)?
  bool invariant_broke = false;
  /// |S|: number of distinct influenced nodes, including v*.
  std::uint64_t s_distinct = 0;
  /// Σ_i |S_i| including level 0 — state updates of the direct implementation.
  std::uint64_t s_memberships = 0;
  /// Index of the last non-empty level (0 when S = {v*} only, and also 0
  /// when S = ∅ — check invariant_broke to distinguish).
  std::uint64_t levels = 0;
  /// Surviving nodes whose final output differs from before the change.
  std::uint64_t adjustments = 0;
  std::vector<NodeId> changed;
};

class TemplateEngine {
 public:
  explicit TemplateEngine(std::uint64_t priority_seed) : priorities_(priority_seed) {}

  /// Build from an existing graph (nodes get priorities drawn in id order).
  TemplateEngine(const graph::DynamicGraph& g, std::uint64_t priority_seed);

  /// Insert a fresh isolated-or-connected node; report via last_report().
  NodeId add_node(std::span<const NodeId> neighbors = {});
  NodeId add_node(std::initializer_list<NodeId> neighbors) {
    return add_node(std::span<const NodeId>(neighbors.begin(), neighbors.size()));
  }
  TemplateReport add_edge(NodeId u, NodeId v);
  TemplateReport remove_edge(NodeId u, NodeId v);
  TemplateReport remove_node(NodeId v);

  [[nodiscard]] bool in_mis(NodeId v) const {
    return v < state_.size() && state_[v];
  }
  [[nodiscard]] graph::NodeSet mis_set() const;
  [[nodiscard]] const graph::DynamicGraph& graph() const noexcept { return g_; }
  [[nodiscard]] PriorityMap& priorities() noexcept { return priorities_; }
  [[nodiscard]] const TemplateReport& last_report() const noexcept { return report_; }

  /// Abort if the MIS invariant does not hold everywhere (test hook).
  void verify() const;

 private:
  [[nodiscard]] bool eval(NodeId v) const;
  /// Run the level recursion from v*. `deleted` marks the node-deletion case
  /// (v* leaves M unconditionally, is barred from S_i for i ≥ 1, and is
  /// physically removed by the caller afterwards).
  void propagate(NodeId v_star, bool deleted);

  graph::DynamicGraph g_;
  PriorityMap priorities_;
  Membership state_;
  TemplateReport report_;
};

}  // namespace dmis::core
