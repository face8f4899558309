// DistMis — the complete fully dynamic distributed MIS algorithm
// (paper Theorem 7), driving MisProtocol over a simulated synchronous
// broadcast network through the shared core::NetworkDriver harness.
//
// Supported topology changes and their expected costs (all with expected one
// adjustment and O(1) rounds):
//
//   insert_edge(u, v)          O(1) broadcasts             (Lemma 10)
//   remove_edge(u, v, mode)    O(1) broadcasts, graceful or abrupt (Lemma 9)
//   insert_node(neighbors)     O(d(v*)) broadcasts          (Lemma 10)
//   unmute_node(neighbors)     O(1) broadcasts              (Lemma 9)
//   remove_node(v, graceful)   O(1) broadcasts              (Lemma 9)
//   remove_node(v, abrupt)     O(min{log n, d(v*)}) broadcasts (Lemma 13)
//
// Between changes the system is stable (the paper's assumption of
// sufficiently infrequent changes); each method injects the change, runs the
// network to quiescence via NetworkDriver::run_change, and returns the
// measured CostReport. The driver also maintains the logical graph so the
// result can be verified against the sequential random-greedy oracle — this
// equality is the executable form of history independence and is asserted by
// verify(). Neighbor lists are spans (CascadeEngine's convention): no
// per-op vector copies, and steady-state changes allocate nothing.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>

#include "core/mis_protocol.hpp"
#include "core/network_driver.hpp"
#include "sim/sync_network.hpp"

namespace dmis::core {

enum class DeletionMode : std::uint8_t {
  kGraceful,  ///< departing node/edge keeps relaying until the system is stable
  kAbrupt,    ///< neighbors merely discover the retirement
};

class DistMis : public NetworkDriver<sim::SyncNetwork, MisProtocol> {
 public:
  using Base = NetworkDriver<sim::SyncNetwork, MisProtocol>;
  using Base::ChangeResult;

  explicit DistMis(std::uint64_t seed) : Base(seed) {}

  /// Start from an existing stable graph (stable-start assumption).
  DistMis(graph::DynamicGraph g, std::uint64_t seed) : Base(seed) {
    init_stable(std::move(g));
  }

  ChangeResult insert_edge(NodeId u, NodeId v);
  ChangeResult remove_edge(NodeId u, NodeId v,
                           DeletionMode mode = DeletionMode::kGraceful);
  ChangeResult insert_node(std::span<const NodeId> neighbors = {});
  ChangeResult insert_node(std::initializer_list<NodeId> neighbors) {
    return insert_node(std::span<const NodeId>(neighbors.begin(), neighbors.size()));
  }
  /// A node that has silently listened to its prospective neighbors becomes
  /// visible (§2's unmuting). Modeled as a fresh node whose view is granted.
  ChangeResult unmute_node(std::span<const NodeId> neighbors = {});
  ChangeResult unmute_node(std::initializer_list<NodeId> neighbors) {
    return unmute_node(std::span<const NodeId>(neighbors.begin(), neighbors.size()));
  }
  ChangeResult remove_node(NodeId v, DeletionMode mode = DeletionMode::kGraceful);
};

}  // namespace dmis::core
