#include "core/batch.hpp"

namespace dmis::core {

BatchResult apply_batch(CascadeEngine& engine, const Batch& batch) {
  BatchResult result;
  apply_batch(engine, batch, result);
  return result;
}

void apply_batch(CascadeEngine& engine, const Batch& batch, BatchResult& out) {
  out.new_nodes.clear();
  for (const BatchOp& op : batch.ops()) {
    const NodeId v = engine.step(op, batch.neighbors_of(op));
    if (op.kind == BatchOp::Kind::kAddNode) out.new_nodes.push_back(v);
  }
  // Copy-assign into the caller's report: `changed` reuses its capacity
  // once it has seen its steady-state maximum.
  out.report = engine.settle();
}

}  // namespace dmis::core
