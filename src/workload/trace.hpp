// Topology-change traces: a serializable sequence of graph operations that
// can be replayed against any of the library's dynamic engines.
//
// Traces are the common currency of the workload generators, the
// history-independence machinery (two different traces building the same
// graph must induce the same output distribution — Definition 14) and the
// benches. Node ids in a trace are *positional*: an add-node/unmute op
// creates the next id in sequence (DynamicGraph ids are assigned in
// insertion order), so a trace is self-contained.
//
// Text format (one op per line, '#' comments):
//   an [nbr...]     add node (id = next), wired to the listed existing nodes
//   un [nbr...]     unmute node (same effect; distributed path differs)
//   ae u v          add edge
//   re u v          remove edge (graceful)
//   rea u v         remove edge (abrupt)
//   rn v            remove node (graceful)
//   rna v           remove node (abrupt)
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/async_mis.hpp"
#include "core/cascade_engine.hpp"
#include "core/dist_mis.hpp"
#include "core/template_engine.hpp"
#include "graph/dynamic_graph.hpp"

namespace dmis::workload {

using graph::NodeId;

enum class OpKind : std::uint8_t {
  kAddNode,
  kUnmuteNode,
  kAddEdge,
  kRemoveEdgeGraceful,
  kRemoveEdgeAbrupt,
  kRemoveNodeGraceful,
  kRemoveNodeAbrupt,
};

struct GraphOp {
  OpKind kind = OpKind::kAddNode;
  NodeId u = 0;
  NodeId v = 0;
  std::vector<NodeId> neighbors;  // kAddNode / kUnmuteNode only

  [[nodiscard]] static GraphOp add_node(std::vector<NodeId> neighbors = {}) {
    return {OpKind::kAddNode, 0, 0, std::move(neighbors)};
  }
  [[nodiscard]] static GraphOp unmute_node(std::vector<NodeId> neighbors = {}) {
    return {OpKind::kUnmuteNode, 0, 0, std::move(neighbors)};
  }
  [[nodiscard]] static GraphOp add_edge(NodeId u, NodeId v) {
    return {OpKind::kAddEdge, u, v, {}};
  }
  [[nodiscard]] static GraphOp remove_edge(NodeId u, NodeId v, bool abrupt = false) {
    return {abrupt ? OpKind::kRemoveEdgeAbrupt : OpKind::kRemoveEdgeGraceful, u, v, {}};
  }
  [[nodiscard]] static GraphOp remove_node(NodeId v, bool abrupt = false) {
    return {abrupt ? OpKind::kRemoveNodeAbrupt : OpKind::kRemoveNodeGraceful, v, v, {}};
  }
};

using Trace = std::vector<GraphOp>;

/// A trace that builds `g` from nothing by inserting nodes in id order and
/// then each edge (the canonical "grow" history of a graph).
[[nodiscard]] Trace grow_trace(const graph::DynamicGraph& g);

/// Apply one op / a whole trace to each engine flavor. The sequential
/// engines collapse graceful/abrupt and treat unmute as insertion (the
/// distinctions only exist at the communication layer).
void apply(core::CascadeEngine& engine, const GraphOp& op);
void apply(core::TemplateEngine& engine, const GraphOp& op);
void apply(core::DistMis& engine, const GraphOp& op);
void apply(core::AsyncMis& engine, const GraphOp& op);

template <typename Engine>
void replay(Engine& engine, const Trace& trace) {
  for (const GraphOp& op : trace) apply(engine, op);
}

/// The graph a trace builds (no MIS machinery), for cross-checks.
[[nodiscard]] graph::DynamicGraph materialize(const Trace& trace);

void write_trace(std::ostream& os, const Trace& trace);
[[nodiscard]] Trace read_trace(std::istream& is);

}  // namespace dmis::workload
