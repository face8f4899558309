#include "core/dist_mis.hpp"

namespace dmis::core {

DistMis::ChangeResult DistMis::insert_edge(NodeId u, NodeId v) {
  DMIS_ASSERT(logical_.add_edge(u, v));
  net_.comm().add_edge(u, v);
  net_.notify(u, v, {kSysEdgeNew, 0, 0});
  net_.notify(v, u, {kSysEdgeNew, 0, 0});
  return run_change();
}

DistMis::ChangeResult DistMis::remove_edge(NodeId u, NodeId v, DeletionMode mode) {
  DMIS_ASSERT(logical_.remove_edge(u, v));
  if (mode == DeletionMode::kAbrupt) net_.comm().remove_edge(u, v);
  net_.notify(u, v, {kSysEdgeGone, 0, 0});
  net_.notify(v, u, {kSysEdgeGone, 0, 0});
  ChangeResult result = run_change();
  // A gracefully deleted edge may relay during recovery and retires only
  // once the system is stable again.
  if (mode == DeletionMode::kGraceful) net_.comm().remove_edge(u, v);
  return result;
}

DistMis::ChangeResult DistMis::insert_node(std::span<const NodeId> neighbors) {
  const NodeId v = materialize_node(neighbors);
  net_.notify(v, v, {kSysJoin, 0, 0});
  return run_change(v);
}

DistMis::ChangeResult DistMis::unmute_node(std::span<const NodeId> neighbors) {
  const NodeId v = materialize_node(neighbors);
  // The model grants a muted listener the knowledge it overheard: the
  // priorities and current states of its neighbors.
  for (const NodeId u : neighbors)
    protocol_.learn_neighbor(v, u, priorities_.key(u), protocol_.state(u));
  net_.notify(v, v, {kSysUnmute, 0, 0});
  return run_change(v);
}

DistMis::ChangeResult DistMis::remove_node(NodeId v, DeletionMode mode) {
  DMIS_ASSERT(logical_.has_node(v));
  if (mode == DeletionMode::kGraceful) {
    // The departing node initiates the recovery and relays until stability.
    logical_.remove_node(v);
    net_.notify(v, v, {kSysLeave, 0, 0});
    ChangeResult result = run_change();
    // Post-run cleanup: forgetting only mutates protocol views, so the comm
    // neighbor span stays valid until the node itself is removed.
    for (const NodeId u : net_.comm().neighbors(v)) protocol_.forget_neighbor(u, v);
    net_.comm().remove_node(v);
    protocol_.destroy_node(v);
    return result;
  }
  // Abrupt: the node vanishes; its neighbors discover the retirement
  // (§4.2 — every locally-violated neighbor starts at C concurrently).
  // Notifications only queue, so they are issued off the live neighbor span
  // before the node is dropped from either graph.
  for (const NodeId u : logical_.neighbors(v)) net_.notify(u, v, {kSysRetired, 0, 0});
  logical_.remove_node(v);
  net_.comm().remove_node(v);
  protocol_.destroy_node(v);
  return run_change();
}

}  // namespace dmis::core
