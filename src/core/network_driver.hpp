// NetworkDriver — the shared harness under every simulated distributed MIS
// implementation.
//
// Both distributed models in this repository (DistMis over the synchronous
// broadcast network, AsyncMis over the event-driven asynchronous one) follow
// the paper's experimental loop: the system is stable, a single topology
// change is injected, the network runs to quiescence, and the per-change
// costs (rounds / broadcasts / bits / adjustments, §2) are collected. The
// loop, the twin logical/communication graph bookkeeping, the stable-start
// construction, the greedy-oracle verification and the span-based node
// materialization used to be duplicated per model; they live here once, so a
// new protocol only supplies its message vocabulary and injection sequences.
//
// Requirements on the parameters:
//   Net   — comm() -> graph::DynamicGraph&, reset_cost(), cost() ->
//           CostReport, run(Proto&).
//   Proto — install_node(v, key, in_mis), install_neighbor(v, u, key,
//           in_mis), begin_change(), adjustments(), in_mis(v), stable(v),
//           and the Net's protocol interface.
//
// Topology-change neighbor lists are passed as std::span<const NodeId>
// (matching CascadeEngine's convention): no per-op vector copies, and any
// contiguous caller-owned buffer works.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/greedy_mis.hpp"
#include "core/priority.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/node_set.hpp"
#include "sim/cost_report.hpp"

namespace dmis::core {

template <typename Net, typename Proto>
class NetworkDriver {
 public:
  struct ChangeResult {
    NodeId node = graph::kInvalidNode;  ///< the inserted node, when applicable
    sim::CostReport cost;               ///< rounds/broadcasts/bits/adjustments
  };

  [[nodiscard]] bool in_mis(NodeId v) const { return protocol_.in_mis(v); }

  [[nodiscard]] graph::NodeSet mis_set() const {
    graph::NodeSet out;
    logical_.for_each_node([&](NodeId v) {
      if (protocol_.in_mis(v)) out.push_back_ascending(v);
    });
    return out;
  }

  [[nodiscard]] const graph::DynamicGraph& graph() const noexcept { return logical_; }
  [[nodiscard]] PriorityMap& priorities() noexcept { return priorities_; }
  [[nodiscard]] const PriorityMap& priorities() const noexcept { return priorities_; }
  [[nodiscard]] const Proto& protocol() const noexcept { return protocol_; }
  [[nodiscard]] Net& network() noexcept { return net_; }
  [[nodiscard]] const Net& network() const noexcept { return net_; }

  /// Abort unless the system is settled and the protocol outputs equal the
  /// sequential random-greedy MIS of the current graph under the same
  /// priorities (executable history independence).
  void verify() {
    const Membership oracle = greedy_mis(logical_, priorities_);
    logical_.for_each_node([&](NodeId v) {
      DMIS_ASSERT_MSG(protocol_.stable(v), "node not settled after recovery");
      DMIS_ASSERT_MSG(protocol_.in_mis(v) == (oracle[v] != 0),
                      "distributed MIS diverged from the greedy oracle");
    });
  }

 protected:
  template <typename... NetArgs>
  explicit NetworkDriver(std::uint64_t priority_seed, NetArgs&&... net_args)
      : priorities_(priority_seed), net_(std::forward<NetArgs>(net_args)...) {}

  /// Start from an existing stable graph: states are initialized to the
  /// greedy MIS and every node knows its neighbors' priorities and states
  /// (the paper's stable-start assumption); no communication is charged.
  /// The communication twin copies logical_; a copy of a borrowed graph
  /// only shares the mapping and clones the (still empty) overlay.
  void init_stable(graph::DynamicGraph g) {
    logical_ = std::move(g);
    net_.comm() = logical_;
    const Membership oracle = greedy_mis(logical_, priorities_);
    logical_.for_each_node([&](NodeId v) {
      protocol_.install_node(v, priorities_.key(v), oracle[v] != 0);
    });
    logical_.for_each_edge([&](NodeId u, NodeId v) {
      protocol_.install_neighbor(u, v, priorities_.key(v), oracle[v] != 0);
      protocol_.install_neighbor(v, u, priorities_.key(u), oracle[u] != 0);
    });
  }

  /// Create a node in both graphs, wire its edges, and register it with the
  /// protocol as a (not yet settled) non-member.
  NodeId materialize_node(std::span<const NodeId> neighbors) {
    const NodeId v = logical_.add_node();
    const NodeId comm_id = net_.comm().add_node();
    DMIS_ASSERT_MSG(comm_id == v, "logical and communication graphs diverged");
    for (const NodeId u : neighbors) {
      logical_.add_edge(v, u);
      net_.comm().add_edge(v, u);
    }
    protocol_.install_node(v, priorities_.ensure(v), false);
    return v;
  }

  /// The shared run-to-quiescence / collect-cost loop. Callers queue their
  /// injections first (queued stimuli do not touch protocol state), then
  /// run_change opens the adjustment epoch, drains the network and returns
  /// the measured per-change costs.
  ChangeResult run_change(NodeId node = graph::kInvalidNode) {
    protocol_.begin_change();
    net_.reset_cost();
    net_.run(protocol_);
    ChangeResult result;
    result.node = node;
    result.cost = net_.cost();
    result.cost.adjustments = protocol_.adjustments();
    return result;
  }

  graph::DynamicGraph logical_;
  PriorityMap priorities_;
  Net net_;
  Proto protocol_;
};

}  // namespace dmis::core
