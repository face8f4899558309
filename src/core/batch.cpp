#include "core/batch.hpp"

#include <algorithm>

namespace dmis::core {

namespace {

/// Apply the topology mutations through the engine's raw_* interface and
/// emit the repair seeds (sorted, deduplicated) plus the ids of inserted
/// nodes.
void apply_ops_collect_seeds(CascadeEngine& engine, const Batch& batch,
                             std::vector<NodeId>& seeds,
                             std::vector<NodeId>& new_nodes) {
  // Seeding rule: for every touched edge, the later-ordered endpoint (the
  // only node an edge change can break, §3); for every inserted node, the
  // node itself; for every deleted node, all of its former neighbors (the
  // later-ordered ones may have been freed; seeding the earlier ones too is
  // a harmless no-op evaluation). Seeds that end up deleted by a later op
  // in the same batch are skipped by the repair pass.
  const auto seed_edge = [&](NodeId u, NodeId v) {
    seeds.push_back(engine.priorities().before(u, v) ? v : u);
  };

  for (const BatchOp& op : batch.ops()) {
    switch (op.kind) {
      case BatchOp::Kind::kAddEdge:
        engine.raw_add_edge(op.u, op.v);
        seed_edge(op.u, op.v);
        break;
      case BatchOp::Kind::kRemoveEdge:
        engine.raw_remove_edge(op.u, op.v);
        seed_edge(op.u, op.v);
        break;
      case BatchOp::Kind::kAddNode: {
        const NodeId v = engine.raw_add_node(batch.neighbors_of(op));
        new_nodes.push_back(v);
        seeds.push_back(v);
        break;
      }
      case BatchOp::Kind::kRemoveNode:
        // Former neighbors land directly in the seed list — no per-op
        // temporary vector.
        engine.raw_remove_node(op.u, seeds);
        break;
    }
  }

  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
}

}  // namespace

BatchResult apply_batch(CascadeEngine& engine, const Batch& batch) {
  BatchResult result;
  apply_batch(engine, batch, result);
  return result;
}

void apply_batch(CascadeEngine& engine, const Batch& batch, BatchResult& out) {
  out.new_nodes.clear();
  out.report.adjustments = 0;
  out.report.evaluated = 0;
  out.report.changed.clear();
  // Reused across batches so steady-state batch application performs no
  // per-call allocation for the seed scratch.
  static thread_local std::vector<NodeId> seeds;
  seeds.clear();
  apply_ops_collect_seeds(engine, batch, seeds, out.new_nodes);
  // Copy-assign into the caller's report: `changed` reuses its capacity
  // once it has seen its steady-state maximum.
  out.report = engine.repair(seeds);
}

}  // namespace dmis::core
