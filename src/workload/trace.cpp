#include "workload/trace.hpp"

#include <algorithm>
#include <string>

namespace dmis::workload {

Trace grow_trace(const graph::DynamicGraph& g) {
  Trace trace;
  for (NodeId v = 0; v < g.id_bound(); ++v) {
    DMIS_ASSERT_MSG(g.has_node(v), "grow_trace requires a graph without deleted ids");
    trace.push_back(GraphOp::add_node());
  }
  auto edges = g.edges();
  std::sort(edges.begin(), edges.end());
  for (const auto& [u, v] : edges) trace.push_back(GraphOp::add_edge(u, v));
  return trace;
}

core::BatchOp::Kind batch_kind(OpKind kind) {
  switch (kind) {
    case OpKind::kAddNode:
    case OpKind::kUnmuteNode:
      return core::BatchOp::Kind::kAddNode;
    case OpKind::kAddEdge:
      return core::BatchOp::Kind::kAddEdge;
    case OpKind::kRemoveEdgeGraceful:
    case OpKind::kRemoveEdgeAbrupt:
      return core::BatchOp::Kind::kRemoveEdge;
    case OpKind::kRemoveNodeGraceful:
    case OpKind::kRemoveNodeAbrupt:
      return core::BatchOp::Kind::kRemoveNode;
  }
  DMIS_ASSERT_MSG(false, "unknown op kind");
}

namespace {

/// CascadeEngine and TemplateEngine share the update API.
template <typename Engine>
void apply_sequential(Engine& engine, const OpView& op) {
  switch (batch_kind(op.kind)) {
    case core::BatchOp::Kind::kAddNode:
      (void)engine.add_node(op.neighbors);
      break;
    case core::BatchOp::Kind::kAddEdge:
      engine.add_edge(op.u, op.v);
      break;
    case core::BatchOp::Kind::kRemoveEdge:
      engine.remove_edge(op.u, op.v);
      break;
    case core::BatchOp::Kind::kRemoveNode:
      engine.remove_node(op.u);
      break;
  }
}

}  // namespace

void apply(core::CascadeEngine& engine, const OpView& op) { apply_sequential(engine, op); }

void apply(core::TemplateEngine& engine, const OpView& op) { apply_sequential(engine, op); }

core::DistMis::ChangeResult apply(core::DistMis& engine, const OpView& op) {
  switch (op.kind) {
    case OpKind::kAddNode:
      return engine.insert_node(op.neighbors);
    case OpKind::kUnmuteNode:
      return engine.unmute_node(op.neighbors);
    case OpKind::kAddEdge:
      return engine.insert_edge(op.u, op.v);
    case OpKind::kRemoveEdgeGraceful:
      return engine.remove_edge(op.u, op.v, core::DeletionMode::kGraceful);
    case OpKind::kRemoveEdgeAbrupt:
      return engine.remove_edge(op.u, op.v, core::DeletionMode::kAbrupt);
    case OpKind::kRemoveNodeGraceful:
      return engine.remove_node(op.u, core::DeletionMode::kGraceful);
    case OpKind::kRemoveNodeAbrupt:
      return engine.remove_node(op.u, core::DeletionMode::kAbrupt);
  }
  DMIS_ASSERT_MSG(false, "unknown op kind");
}

core::AsyncMis::ChangeResult apply(core::AsyncMis& engine, const OpView& op) {
  switch (op.kind) {
    case OpKind::kAddNode:
      return engine.insert_node(op.neighbors);
    case OpKind::kUnmuteNode:
      return engine.unmute_node(op.neighbors);
    case OpKind::kAddEdge:
      return engine.insert_edge(op.u, op.v);
    case OpKind::kRemoveEdgeGraceful:
    case OpKind::kRemoveEdgeAbrupt:
      return engine.remove_edge(op.u, op.v);
    case OpKind::kRemoveNodeGraceful:
    case OpKind::kRemoveNodeAbrupt:
      return engine.remove_node(op.u);
  }
  DMIS_ASSERT_MSG(false, "unknown op kind");
}

std::string apply_checked(graph::DynamicGraph& g, const OpView& op) {
  const auto dead = [](NodeId v) { return "node " + std::to_string(v) + " is not live"; };
  const auto edge = [&] {
    return "edge {" + std::to_string(op.u) + ", " + std::to_string(op.v) + "}";
  };
  const core::BatchOp::Kind kind = batch_kind(op.kind);
  switch (kind) {
    case core::BatchOp::Kind::kAddNode: {
      // Check every neighbor before the node exists, so a neighbor list can
      // never name the new id; a repeat then shows as a failed add_edge.
      for (const NodeId u : op.neighbors)
        if (!g.has_node(u)) return "add-node neighbor: " + dead(u);
      const NodeId v = g.add_node();
      for (const NodeId u : op.neighbors)
        if (!g.add_edge(v, u)) return "add-node neighbor " + std::to_string(u) + " repeated";
      return {};
    }
    case core::BatchOp::Kind::kAddEdge:
    case core::BatchOp::Kind::kRemoveEdge:
      if (!g.has_node(op.u)) return dead(op.u);
      if (!g.has_node(op.v)) return dead(op.v);
      if (op.u == op.v) return "self-loop on node " + std::to_string(op.u);
      if (kind == core::BatchOp::Kind::kAddEdge) {
        if (!g.add_edge(op.u, op.v)) return edge() + " already present";
      } else if (!g.remove_edge(op.u, op.v)) {
        return edge() + " absent";
      }
      return {};
    case core::BatchOp::Kind::kRemoveNode:
      if (!g.has_node(op.u)) return "remove_node: " + dead(op.u);
      g.remove_node(op.u);
      return {};
  }
  DMIS_ASSERT_MSG(false, "unknown op kind");
}

void apply(graph::DynamicGraph& g, const OpView& op) {
  const std::string invalid = apply_checked(g, op);
  DMIS_ASSERT_MSG(invalid.empty(), invalid.c_str());
}

graph::DynamicGraph materialize(const Trace& trace) {
  graph::DynamicGraph g;
  for (const GraphOp& op : trace) apply(g, op);
  return g;
}

}  // namespace dmis::workload
