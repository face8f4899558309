// Client op streams, generated from the seed before any clock starts. Each
// producer lane owns one array and only replays it, so the timed loops draw
// no random numbers and do no rejection sampling.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/batch.hpp"
#include "graph/dynamic_graph.hpp"
#include "service/ingest.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"

namespace servebench {

using dmis::graph::NodeId;
using Kind = dmis::core::BatchOp::Kind;

/// One op as stored in a lane: add-node neighbor lists live in the lane's
/// arena, back to back in op order, so replay walks both arrays forward.
struct PackedOp {
  Kind kind = Kind::kAddEdge;
  std::uint8_t nbr_count = 0;
  NodeId u = 0;
  NodeId v = 0;
};

/// Replay position in a lane: the next op and the arena slot of its
/// neighbors.
struct Cursor {
  std::size_t op = 0;
  std::size_t nbr = 0;
};

struct LaneStream {
  std::vector<PackedOp> ops;
  std::vector<NodeId> arena;

  [[nodiscard]] std::span<const NodeId> neighbors(const Cursor& c) const {
    return {arena.data() + c.nbr, ops[c.op].nbr_count};
  }

  /// The op at `c` as an ingest client op; advances `c`.
  dmis::service::ClientOp client_op(Cursor& c) const {
    const PackedOp& op = ops[c.op];
    dmis::service::ClientOp out;
    switch (op.kind) {
      case Kind::kAddEdge: out = dmis::service::ClientOp::add_edge(op.u, op.v); break;
      case Kind::kRemoveEdge:
        out = dmis::service::ClientOp::remove_edge(op.u, op.v);
        break;
      case Kind::kRemoveNode: out = dmis::service::ClientOp::remove_node(op.u); break;
      case Kind::kAddNode: {
        const bool fits = dmis::service::ClientOp::add_node(neighbors(c), &out);
        DMIS_ASSERT(fits);
        break;
      }
    }
    c.nbr += op.nbr_count;
    ++c.op;
    return out;
  }

  /// Append the op at `c` to `batch`; advances `c`.
  void append_to(dmis::core::Batch& batch, Cursor& c) const {
    const PackedOp& op = ops[c.op];
    switch (op.kind) {
      case Kind::kAddEdge: batch.add_edge(op.u, op.v); break;
      case Kind::kRemoveEdge: batch.remove_edge(op.u, op.v); break;
      case Kind::kRemoveNode: batch.remove_node(op.u); break;
      case Kind::kAddNode: batch.add_node(neighbors(c)); break;
    }
    c.nbr += op.nbr_count;
    ++c.op;
  }

  [[nodiscard]] Cursor advance(Cursor c, std::size_t count) const {
    for (std::size_t i = 0; i < count; ++i) c.nbr += ops[c.op++].nbr_count;
    return c;
  }
};

inline std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t digest(const std::vector<LaneStream>& lanes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const LaneStream& lane : lanes) {
    for (const PackedOp& op : lane.ops) {
      const std::uint32_t words[4] = {static_cast<std::uint32_t>(op.kind), op.nbr_count,
                                      op.u, op.v};
      h = fnv1a(words, sizeof(words), h);
    }
    h = fnv1a(lane.arena.data(), lane.arena.size() * sizeof(NodeId), h);
  }
  return h;
}

/// The base graph as bulk-load batches: node v arrives as one add-node op
/// wired to its lower-id neighbors, so ids come out as 0..n-1 in order.
inline std::vector<dmis::core::Batch> base_load_batches(const dmis::graph::DynamicGraph& g,
                                                        std::size_t ops_per_batch) {
  DMIS_ASSERT_MSG(g.node_count() == g.id_bound(), "base graph ids must be dense");
  std::vector<dmis::core::Batch> out;
  std::vector<NodeId> lower;
  dmis::core::Batch current;
  for (NodeId v = 0; v < g.id_bound(); ++v) {
    lower.clear();
    for (const NodeId u : g.neighbors(v))
      if (u < v) lower.push_back(u);
    current.add_node(lower);
    if (current.size() == ops_per_batch) {
      out.push_back(std::move(current));
      current = dmis::core::Batch{};
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

/// The lane that owns edge {u, v} (u < v) — the `dmis_service serve` rule.
/// Lanes touching disjoint edge sets make every cross-lane interleaving the
/// consumer picks a valid op sequence with the same final graph.
inline unsigned edge_owner(std::uint64_t u, std::uint64_t v, unsigned lanes) {
  return static_cast<unsigned>((u * 2654435761ULL + v * 40503ULL) % lanes);
}

/// Edge toggles inside each lane's hash partition: each op removes a random
/// owned edge or adds a random absent owned pair with equal odds, so the
/// edge count, and with it the average degree, stays near the base graph's.
inline std::vector<LaneStream> toggle_streams(const dmis::graph::DynamicGraph& base,
                                              unsigned lanes, std::size_t ops_per_lane,
                                              std::uint64_t seed) {
  const std::uint64_t n = base.id_bound();
  std::vector<LaneStream> out(lanes);
  for (unsigned p = 0; p < lanes; ++p) {
    std::vector<std::uint64_t> present;
    std::unordered_map<std::uint64_t, std::uint32_t> index;
    base.for_each_edge([&](NodeId a, NodeId b) {
      const std::uint64_t u = a < b ? a : b;
      const std::uint64_t v = a < b ? b : a;
      if (edge_owner(u, v, lanes) != p) return;
      index.emplace(u << 32 | v, static_cast<std::uint32_t>(present.size()));
      present.push_back(u << 32 | v);
    });
    index.reserve(present.size() * 2);
    dmis::util::Rng rng(seed * 9176 + p);
    LaneStream& lane = out[p];
    lane.ops.reserve(ops_per_lane);
    for (std::size_t i = 0; i < ops_per_lane; ++i) {
      if (rng.next_bit() && !present.empty()) {
        const std::size_t j = rng.below(present.size());
        const std::uint64_t key = present[j];
        index[present.back()] = static_cast<std::uint32_t>(j);
        present[j] = present.back();
        present.pop_back();
        index.erase(key);
        lane.ops.push_back({Kind::kRemoveEdge, 0, static_cast<NodeId>(key >> 32),
                            static_cast<NodeId>(key & 0xffffffffULL)});
        continue;
      }
      for (;;) {
        std::uint64_t u = rng.below(n);
        std::uint64_t v = rng.below(n);
        if (u > v) std::swap(u, v);
        if (u == v || edge_owner(u, v, lanes) != p) continue;
        const std::uint64_t key = u << 32 | v;
        if (!index.emplace(key, static_cast<std::uint32_t>(present.size())).second)
          continue;
        present.push_back(key);
        lane.ops.push_back({Kind::kAddEdge, 0, static_cast<NodeId>(u),
                            static_cast<NodeId>(v)});
        break;
      }
    }
  }
  return out;
}

/// One lane replaying the default ChurnGenerator mix over `base`. The
/// graceful/abrupt distinction has no batch encoding (the cascade engine
/// treats both alike), so it is drawn but not stored.
inline LaneStream churn_stream(dmis::graph::DynamicGraph base, std::size_t ops,
                               std::uint64_t seed) {
  dmis::workload::ChurnGenerator gen(std::move(base), dmis::workload::ChurnConfig{},
                                     seed);
  LaneStream lane;
  lane.ops.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    const dmis::workload::GraphOp op = gen.next();
    switch (op.kind) {
      case dmis::workload::OpKind::kAddNode:
      case dmis::workload::OpKind::kUnmuteNode:
        DMIS_ASSERT(op.neighbors.size() <=
                    dmis::service::ClientOp::kMaxInlineNeighbors);
        lane.ops.push_back(
            {Kind::kAddNode, static_cast<std::uint8_t>(op.neighbors.size()), 0, 0});
        lane.arena.insert(lane.arena.end(), op.neighbors.begin(), op.neighbors.end());
        break;
      case dmis::workload::OpKind::kAddEdge:
        lane.ops.push_back({Kind::kAddEdge, 0, op.u, op.v});
        break;
      case dmis::workload::OpKind::kRemoveEdgeGraceful:
      case dmis::workload::OpKind::kRemoveEdgeAbrupt:
        lane.ops.push_back({Kind::kRemoveEdge, 0, op.u, op.v});
        break;
      case dmis::workload::OpKind::kRemoveNodeGraceful:
      case dmis::workload::OpKind::kRemoveNodeAbrupt:
        lane.ops.push_back({Kind::kRemoveNode, 0, op.u, op.u});
        break;
    }
  }
  return lane;
}

}  // namespace servebench
