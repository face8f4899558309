// AsyncMis — the direct asynchronous implementation of the template
// (paper Corollary 6): in the asynchronous model the algorithm needs, in
// expectation, a single adjustment and a single "round", where the round
// complexity of an asynchronous execution is the longest causal chain of
// messages.
//
// Each node keeps its state (M / M̄), its priority, and a flat view of its
// neighbors' priorities and states (core::NeighborView). Whenever anything
// in its view changes, a node recomputes the MIS invariant locally — it
// should be in M iff no earlier-ordered live neighbor is in M — and if its
// state must change it flips and broadcasts the new state. States may flip
// transiently while information is in flight; because a node's correct state
// depends only on strictly earlier-ordered nodes, the relaxation settles
// bottom-up in π order and quiesces with the exact random-greedy MIS.
//
// Adjustments are counted the same way MisProtocol counts them: each change
// opens an epoch, a node's first state write in the epoch records its origin
// state, and a flip away from (back to) the origin increments (decrements)
// the counter — so transient flips cancel and the final count equals the
// membership diff over surviving nodes, with no per-change snapshot vectors.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>

#include "core/neighbor_view.hpp"
#include "core/network_driver.hpp"
#include "core/priority.hpp"
#include "sim/async_network.hpp"

namespace dmis::core {

/// Message kinds for the async protocol.
enum AsyncMsg : std::uint8_t {
  kAHello = 1,      ///< a = priority, b = in_mis     (O(log n) bits)
  kAHelloReply = 2, ///< a = priority, b = in_mis     (O(log n) bits)
  kAState = 3,      ///< b = in_mis                   (O(1) bits)
  kASysEdgeNew = 10,
  kASysEdgeGone = 11,
  kASysRetired = 12,
  kASysJoin = 13,    ///< a = number of introductions to await (§4.1)
  kASysUnmute = 14,
};

class AsyncMisProtocol final : public sim::AsyncProtocol {
 public:
  void create_node(NodeId v, std::uint64_t key, bool in_mis);
  void destroy_node(NodeId v);
  void learn_neighbor(NodeId v, NodeId u, std::uint64_t key, bool in_mis);
  void forget_neighbor(NodeId v, NodeId u);

  // Model-agnostic install hooks used by the shared NetworkDriver harness.
  void install_node(NodeId v, std::uint64_t key, bool in_mis) {
    create_node(v, key, in_mis);
  }
  void install_neighbor(NodeId v, NodeId u, std::uint64_t key, bool in_mis) {
    learn_neighbor(v, u, key, in_mis);
  }

  /// Start a new change epoch: resets the per-change adjustment counter.
  void begin_change();
  /// Output changes (surviving nodes whose state differs from the state held
  /// when the current change epoch began) since begin_change().
  [[nodiscard]] std::uint64_t adjustments() const noexcept { return adjustments_; }

  [[nodiscard]] bool exists(NodeId v) const {
    return v < nodes_.size() && nodes_[v].exists;
  }
  [[nodiscard]] bool in_mis(NodeId v) const;
  /// The async relaxation has no unsettled protocol states; quiescence
  /// itself is stability.
  [[nodiscard]] bool stable(NodeId) const noexcept { return true; }

  void on_message(NodeId v, const sim::Delivery& d, sim::AsyncNetwork& net) override;

 private:
  struct Local {
    bool exists = false;
    bool in_mis = false;
    std::uint64_t key = 0;
    std::uint64_t awaiting_hellos = 0;  ///< §4.1 join: reply count outstanding
    NeighborView view;
    // Adjustment accounting for the current change epoch.
    std::uint64_t epoch = 0;
    bool epoch_origin = false;
    bool counted = false;
  };

  [[nodiscard]] Local& local(NodeId v);
  [[nodiscard]] bool wants_mis(const Local& me, NodeId my_id) const;
  /// Flip to `wants`, maintaining the epoch adjustment counter.
  void set_state(Local& me, bool wants);
  /// Re-evaluate the invariant; broadcast iff the state flips.
  void reevaluate(NodeId v, sim::AsyncNetwork& net);

  std::vector<Local> nodes_;
  std::uint64_t epoch_ = 0;
  std::uint64_t adjustments_ = 0;
};

/// Driver for the async algorithm; mirrors core::DistMis for the four
/// logical changes plus unmuting (deletions are abrupt-style: the model's
/// graceful/abrupt distinction only affects relaying, which the direct
/// implementation never uses).
class AsyncMis : public NetworkDriver<sim::AsyncNetwork, AsyncMisProtocol> {
 public:
  using Base = NetworkDriver<sim::AsyncNetwork, AsyncMisProtocol>;
  using Base::ChangeResult;

  AsyncMis(std::uint64_t priority_seed, std::uint64_t scheduler_seed,
           std::uint64_t max_delay = 8)
      : Base(priority_seed, scheduler_seed, max_delay) {}

  AsyncMis(graph::DynamicGraph g, std::uint64_t priority_seed,
           std::uint64_t scheduler_seed, std::uint64_t max_delay = 8)
      : Base(priority_seed, scheduler_seed, max_delay) {
    init_stable(std::move(g));
  }

  ChangeResult insert_edge(NodeId u, NodeId v);
  ChangeResult remove_edge(NodeId u, NodeId v);
  ChangeResult insert_node(std::span<const NodeId> neighbors = {});
  ChangeResult insert_node(std::initializer_list<NodeId> neighbors) {
    return insert_node(std::span<const NodeId>(neighbors.begin(), neighbors.size()));
  }
  ChangeResult unmute_node(std::span<const NodeId> neighbors = {});
  ChangeResult unmute_node(std::initializer_list<NodeId> neighbors) {
    return unmute_node(std::span<const NodeId>(neighbors.begin(), neighbors.size()));
  }
  ChangeResult remove_node(NodeId v);
};

}  // namespace dmis::core
