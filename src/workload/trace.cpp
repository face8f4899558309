#include "workload/trace.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
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

void apply(core::CascadeEngine& engine, const GraphOp& op) {
  switch (op.kind) {
    case OpKind::kAddNode:
    case OpKind::kUnmuteNode:
      (void)engine.add_node(op.neighbors);
      break;
    case OpKind::kAddEdge:
      engine.add_edge(op.u, op.v);
      break;
    case OpKind::kRemoveEdgeGraceful:
    case OpKind::kRemoveEdgeAbrupt:
      engine.remove_edge(op.u, op.v);
      break;
    case OpKind::kRemoveNodeGraceful:
    case OpKind::kRemoveNodeAbrupt:
      engine.remove_node(op.u);
      break;
  }
}

void apply(core::TemplateEngine& engine, const GraphOp& op) {
  switch (op.kind) {
    case OpKind::kAddNode:
    case OpKind::kUnmuteNode:
      (void)engine.add_node(op.neighbors);
      break;
    case OpKind::kAddEdge:
      engine.add_edge(op.u, op.v);
      break;
    case OpKind::kRemoveEdgeGraceful:
    case OpKind::kRemoveEdgeAbrupt:
      engine.remove_edge(op.u, op.v);
      break;
    case OpKind::kRemoveNodeGraceful:
    case OpKind::kRemoveNodeAbrupt:
      engine.remove_node(op.u);
      break;
  }
}

void apply(core::DistMis& engine, const GraphOp& op) {
  switch (op.kind) {
    case OpKind::kAddNode:
      engine.insert_node(op.neighbors);
      break;
    case OpKind::kUnmuteNode:
      engine.unmute_node(op.neighbors);
      break;
    case OpKind::kAddEdge:
      engine.insert_edge(op.u, op.v);
      break;
    case OpKind::kRemoveEdgeGraceful:
      engine.remove_edge(op.u, op.v, core::DeletionMode::kGraceful);
      break;
    case OpKind::kRemoveEdgeAbrupt:
      engine.remove_edge(op.u, op.v, core::DeletionMode::kAbrupt);
      break;
    case OpKind::kRemoveNodeGraceful:
      engine.remove_node(op.u, core::DeletionMode::kGraceful);
      break;
    case OpKind::kRemoveNodeAbrupt:
      engine.remove_node(op.u, core::DeletionMode::kAbrupt);
      break;
  }
}

void apply(core::AsyncMis& engine, const GraphOp& op) {
  switch (op.kind) {
    case OpKind::kAddNode:
      engine.insert_node(op.neighbors);
      break;
    case OpKind::kUnmuteNode:
      engine.unmute_node(op.neighbors);
      break;
    case OpKind::kAddEdge:
      engine.insert_edge(op.u, op.v);
      break;
    case OpKind::kRemoveEdgeGraceful:
    case OpKind::kRemoveEdgeAbrupt:
      engine.remove_edge(op.u, op.v);
      break;
    case OpKind::kRemoveNodeGraceful:
    case OpKind::kRemoveNodeAbrupt:
      engine.remove_node(op.u);
      break;
  }
}

graph::DynamicGraph materialize(const Trace& trace) {
  graph::DynamicGraph g;
  for (const GraphOp& op : trace) {
    switch (op.kind) {
      case OpKind::kAddNode:
      case OpKind::kUnmuteNode: {
        const NodeId v = g.add_node();
        for (const NodeId u : op.neighbors) g.add_edge(v, u);
        break;
      }
      case OpKind::kAddEdge:
        g.add_edge(op.u, op.v);
        break;
      case OpKind::kRemoveEdgeGraceful:
      case OpKind::kRemoveEdgeAbrupt:
        g.remove_edge(op.u, op.v);
        break;
      case OpKind::kRemoveNodeGraceful:
      case OpKind::kRemoveNodeAbrupt:
        g.remove_node(op.u);
        break;
    }
  }
  return g;
}

void write_trace(std::ostream& os, const Trace& trace) {
  for (const GraphOp& op : trace) {
    switch (op.kind) {
      case OpKind::kAddNode:
      case OpKind::kUnmuteNode:
        os << (op.kind == OpKind::kAddNode ? "an" : "un");
        for (const NodeId u : op.neighbors) os << ' ' << u;
        os << '\n';
        break;
      case OpKind::kAddEdge:
        os << "ae " << op.u << ' ' << op.v << '\n';
        break;
      case OpKind::kRemoveEdgeGraceful:
        os << "re " << op.u << ' ' << op.v << '\n';
        break;
      case OpKind::kRemoveEdgeAbrupt:
        os << "rea " << op.u << ' ' << op.v << '\n';
        break;
      case OpKind::kRemoveNodeGraceful:
        os << "rn " << op.u << '\n';
        break;
      case OpKind::kRemoveNodeAbrupt:
        os << "rna " << op.u << '\n';
        break;
    }
  }
}

Trace read_trace(std::istream& is) {
  Trace trace;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string tag;
    ss >> tag;
    if (tag == "an" || tag == "un") {
      std::vector<NodeId> neighbors;
      NodeId u = 0;
      while (ss >> u) neighbors.push_back(u);
      trace.push_back(tag == "an" ? GraphOp::add_node(std::move(neighbors))
                                  : GraphOp::unmute_node(std::move(neighbors)));
    } else if (tag == "ae" || tag == "re" || tag == "rea") {
      NodeId u = 0;
      NodeId v = 0;
      ss >> u >> v;
      DMIS_ASSERT_MSG(!ss.fail(), "malformed edge op");
      if (tag == "ae") trace.push_back(GraphOp::add_edge(u, v));
      else trace.push_back(GraphOp::remove_edge(u, v, tag == "rea"));
    } else if (tag == "rn" || tag == "rna") {
      NodeId v = 0;
      ss >> v;
      DMIS_ASSERT_MSG(!ss.fail(), "malformed node op");
      trace.push_back(GraphOp::remove_node(v, tag == "rna"));
    } else {
      DMIS_ASSERT_MSG(false, "unknown trace op");
    }
  }
  return trace;
}

}  // namespace dmis::workload
