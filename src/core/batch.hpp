// Batch updates — an implementation answer to the paper's first open
// question (§6): coping with more than a single failure at a time.
//
// The paper's analysis covers one change between stable periods. When many
// changes land at once, one can still repair the invariant with a *single*
// cascade pass: apply every op's topology change in order, seed the
// priority queue with every node whose invariant the op may have broken,
// and run the usual increasing-π repair. The seeding rule is §3's, op by
// op, judged against the membership the batch started from:
//   * an added edge can break only its later endpoint, and only when both
//     ends are in M;
//   * a removed edge can break only its later end, and only when the
//     earlier end is in M and the later end is not;
//   * a removed node frees only its later neighbors, and only when it was
//     in M;
//   * an inserted node starts in M̄ and seeds itself.
// The single-change updates run exactly this step followed by one cascade
// (CascadeEngine::step), so one op has one seeding rule in both paths.
// Why judging each op against the pre-batch membership suffices: steps
// change no membership but a removed node's own, so a surviving node can
// end the batch with a broken invariant only as an M node that gained an
// earlier M neighbor (that add seeded it), as an M̄ node that lost earlier
// M neighbors (each edge or node removal that did seeded it), or as a new
// node (seeded itself). Every other node keeps its invariant until an
// earlier neighbor flips in the cascade, which enqueues it; pops in
// increasing π order finalize each node in one evaluation. The cascade
// skips seeds pushed twice (visited stamps) and seeds a later op deleted.
//
// The interesting measurement (bench_ablation E13d) is that the batch
// repair's total adjustments can be *smaller* than applying the same
// changes one at a time: intermediate configurations that a sequential
// application must realize (and pay for) are skipped. Theorem 1 then gives
// E[adjustments] ≤ k for a k-change batch by linearity — the open question
// is whether o(k) holds; the bench gives the empirical answer for random
// batches (clearly sublinear for correlated ones).
//
// Representation. A batch is built through core::Batch, which stores ops as
// 16-byte PODs and add-node neighbor lists in one batch-owned arena: a
// BatchOp carries an (offset, count) view into that arena instead of its own
// std::vector, so building a 4096-op batch costs two amortized vector
// appends total — not one heap allocation per op — and clear() + rebuild
// reuses both buffers allocation-free in steady state.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "core/cascade_engine.hpp"

namespace dmis::core {

struct BatchOp {
  enum class Kind : std::uint8_t { kAddEdge, kRemoveEdge, kAddNode, kRemoveNode };

  Kind kind = Kind::kAddEdge;
  NodeId u = 0;
  NodeId v = 0;
  // kAddNode only: neighbors are arena[nbr_begin, nbr_begin + nbr_count);
  // resolve with Batch::neighbors_of().
  std::uint32_t nbr_begin = 0;
  std::uint32_t nbr_count = 0;
};

/// An ordered list of simultaneous ops plus the arena backing their
/// neighbor lists. Ops apply in order against the evolving graph (an edge
/// added earlier in the batch may be removed later, a node added earlier
/// may be wired to later, etc.). Nothing validates them yet: an invalid op
/// — a duplicate edge, a missing edge, a dead node — aborts the process
/// when applied.
class Batch {
 public:
  Batch() = default;

  void reserve(std::size_t ops, std::size_t neighbor_slots = 0) {
    ops_.reserve(ops);
    if (neighbor_slots > 0) arena_.reserve(neighbor_slots);
  }

  /// Drop all ops but keep both buffers' capacity (steady-state reuse).
  void clear() noexcept {
    ops_.clear();
    arena_.clear();
  }

  void add_edge(NodeId u, NodeId v) {
    ops_.push_back({BatchOp::Kind::kAddEdge, u, v, 0, 0});
  }
  void remove_edge(NodeId u, NodeId v) {
    ops_.push_back({BatchOp::Kind::kRemoveEdge, u, v, 0, 0});
  }
  void remove_node(NodeId v) {
    ops_.push_back({BatchOp::Kind::kRemoveNode, v, v, 0, 0});
  }
  /// Insert a fresh node wired to `neighbors` (copied into the arena; the
  /// caller's storage is not referenced after this returns).
  void add_node(std::span<const NodeId> neighbors = {}) {
    const auto begin = static_cast<std::uint32_t>(arena_.size());
    arena_.insert(arena_.end(), neighbors.begin(), neighbors.end());
    ops_.push_back({BatchOp::Kind::kAddNode, 0, 0, begin,
                    static_cast<std::uint32_t>(neighbors.size())});
  }
  void add_node(std::initializer_list<NodeId> neighbors) {
    add_node(std::span<const NodeId>(neighbors.begin(), neighbors.size()));
  }
  /// Append one op given as (kind, u, v, neighbors) — the shape client ops,
  /// WAL records and trace ops all share — through the typed builder of its
  /// kind, so every source produces the same op bytes. kAddNode reads only
  /// `neighbors`, kRemoveNode only `u`, edge ops only `u` and `v`.
  void append(BatchOp::Kind kind, NodeId u, NodeId v,
              std::span<const NodeId> neighbors = {}) {
    switch (kind) {
      case BatchOp::Kind::kAddEdge: add_edge(u, v); break;
      case BatchOp::Kind::kRemoveEdge: remove_edge(u, v); break;
      case BatchOp::Kind::kAddNode: add_node(neighbors); break;
      case BatchOp::Kind::kRemoveNode: remove_node(u); break;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  [[nodiscard]] std::span<const BatchOp> ops() const noexcept { return ops_; }
  [[nodiscard]] std::span<const NodeId> neighbors_of(const BatchOp& op) const noexcept {
    return {arena_.data() + op.nbr_begin, op.nbr_count};
  }

 private:
  std::vector<BatchOp> ops_;
  std::vector<NodeId> arena_;  // all add-node neighbor lists, back to back
};

struct BatchResult {
  UpdateReport report;
  /// Ids assigned to kAddNode ops, in op order.
  std::vector<NodeId> new_nodes;
};

/// Apply all ops as one simultaneous change — CascadeEngine's op step per
/// op — and repair with a single cascade (none when no op seeded a node).
[[nodiscard]] BatchResult apply_batch(CascadeEngine& engine, const Batch& batch);

/// Same, writing into a caller-owned result whose vectors keep their
/// capacity across calls — the allocation-free form the service ingest
/// loop runs (service/service.hpp): in steady state neither the result nor
/// the engine allocates.
void apply_batch(CascadeEngine& engine, const Batch& batch, BatchResult& out);

}  // namespace dmis::core
