#include "workload/distributed.hpp"

namespace dmis::workload {

namespace {

/// Degree footprint of an op *before* it is applied: the victim's degree for
/// node deletions, the attachment count for node insertions (the d(v*) the
/// paper's bounds are stated in), 0 for edge ops.
template <typename Engine>
std::uint32_t op_degree(const Engine& engine, const GraphOp& op) {
  switch (op.kind) {
    case OpKind::kAddNode:
    case OpKind::kUnmuteNode:
      return static_cast<std::uint32_t>(op.neighbors.size());
    case OpKind::kRemoveNodeGraceful:
    case OpKind::kRemoveNodeAbrupt:
      return static_cast<std::uint32_t>(engine.graph().degree(op.u));
    default:
      return 0;
  }
}

template <typename Engine>
CostSample sample_change(Engine& engine, const GraphOp& op) {
  const std::uint32_t degree = op_degree(engine, op);  // read before the change
  return {op.kind, degree, apply(engine, op).cost};
}

}  // namespace

CostSample apply_with_cost(core::DistMis& engine, const GraphOp& op) {
  return sample_change(engine, op);
}

CostSample apply_with_cost(core::AsyncMis& engine, const GraphOp& op) {
  return sample_change(engine, op);
}

}  // namespace dmis::workload
