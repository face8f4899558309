// Topology-change traces: a sequence of graph operations that can be
// replayed against any of the library's dynamic engines.
//
// Traces are the common currency of the workload generators, the
// history-independence machinery (two different traces building the same
// graph must induce the same output distribution — Definition 14) and the
// benches. Node ids in a trace are *positional*: an add-node/unmute op
// creates the next id in sequence (DynamicGraph ids are assigned in
// insertion order), so a trace is self-contained. On disk a trace is a
// binary workload::TraceFile (workload/trace_file.hpp), validated on open;
// there is no other trace format.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/async_mis.hpp"
#include "core/batch.hpp"
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

/// One op with its neighbor list as a span: the shape a GraphOp and a
/// mapped TraceFile record share, so each engine has one dispatcher.
struct OpView {
  OpKind kind = OpKind::kAddNode;
  NodeId u = 0;
  NodeId v = 0;
  std::span<const NodeId> neighbors;  // kAddNode / kUnmuteNode only
};

struct GraphOp {
  OpKind kind = OpKind::kAddNode;
  NodeId u = 0;
  NodeId v = 0;
  std::vector<NodeId> neighbors;  // kAddNode / kUnmuteNode only

  /// View of this op; valid while the op lives.
  operator OpView() const noexcept { return {kind, u, v, neighbors}; }

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

/// The op kind a core::Batch stores for `kind`: graceful/abrupt and
/// add/unmute collapse (the distinctions only exist at the communication
/// layer).
[[nodiscard]] core::BatchOp::Kind batch_kind(OpKind kind);

/// Apply one op / a whole trace to each engine flavor — one dispatcher per
/// engine, taking a GraphOp or a TraceFile record alike. The sequential
/// engines and the bare graph collapse ops as batch_kind() does; the
/// distributed engines return the change's result, cost included.
void apply(core::CascadeEngine& engine, const OpView& op);
void apply(core::TemplateEngine& engine, const OpView& op);
core::DistMis::ChangeResult apply(core::DistMis& engine, const OpView& op);
core::AsyncMis::ChangeResult apply(core::AsyncMis& engine, const OpView& op);
/// Topology only, no MIS machinery: the one graph dispatcher. apply_checked
/// applies `op` and returns "" if it can apply to `g`, and otherwise why
/// not — a dead or unknown node id, a self-loop, adding a present edge or
/// removing an absent one, a dead or repeated add-node neighbor — leaving
/// `g` to be discarded (it may hold part of an add-node op). apply aborts
/// with that reason: an invalid op in an in-memory trace is a bug, while a
/// trace read from outside goes through TraceFile::materialize.
[[nodiscard]] std::string apply_checked(graph::DynamicGraph& g, const OpView& op);
void apply(graph::DynamicGraph& g, const OpView& op);

template <typename Engine>
void replay(Engine& engine, const Trace& trace) {
  for (const GraphOp& op : trace) apply(engine, op);
}

/// The graph a trace builds (no MIS machinery), for cross-checks.
[[nodiscard]] graph::DynamicGraph materialize(const Trace& trace);

}  // namespace dmis::workload
