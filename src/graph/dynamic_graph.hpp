// DynamicGraph: the mutable undirected graph that every engine in this
// repository operates on.
//
// The paper's model (§2) manipulates an undirected graph under four logical
// topology changes: edge insertion, edge deletion, node insertion and node
// deletion. This class provides exactly those operations, plus the
// inspection helpers the engines and simulators need. Edge updates cost
// O(deg) and removing v costs O(deg(v) + Σ deg(w)) over its neighbors w:
// one walk of v's list.
//
// Flat, cache-friendly storage — the per-update constant factor is the whole
// game for a structure whose algorithmic cost is already expected O(1):
//   * Adjacency is an array of 64-byte AdjRecords: liveness flag, degree and
//     up to 14 inline neighbor slots in a single cache line. Touching an
//     endpoint (liveness check + neighbor update) is one memory access for
//     the overwhelming majority of nodes in sparse graphs; only nodes whose
//     degree ever exceeded the inline capacity spill to a per-node overflow
//     vector (and stay there — hysteresis keeps churn allocation-free).
//   * neighbors(v) returns a std::span view; nothing is materialized.
// Prefer for_each_node / for_each_edge over nodes() / edges() in hot code —
// the latter build a fresh vector per call.
//
// Two storage modes share this one interface:
//
//   * Materialized (the default): everything lives in the heap vectors
//     above, and the edge set is also a util::FlatSet (open addressing,
//     contiguous arrays): O(1) expected edge queries, no allocation in
//     steady state, uniform edge sampling for the workload generators, and
//     the table the version-1 snapshot writer stores. load() bulk-copies a
//     snapshot into this form.
//   * Borrowed (borrow()): the graph reads the CSR adjacency and alive
//     bytes *in place* from a mapped graph::Snapshot and keeps only a
//     dirty-region overlay on the heap. Opening is ~O(header) — no per-byte
//     work until a page is actually touched — so graphs larger than RAM
//     page on demand. Copy-on-write is at adjacency-record granularity: a
//     node's record (and overflow list) migrates to the heap pool on first
//     mutation and is found through the `dirty_` index from then on; clean
//     nodes keep reading the mapping forever. The edge set is the adjacency
//     lists alone: a node's current list is its dirty record if it has one,
//     else its mapped CSR list, and edge membership scans the shorter of the
//     two endpoints' current lists (a stored edge table, where a snapshot
//     version has one, is never read). Steady-state churn on a warmed
//     overlay is allocation-free (FlatMap hits in the dirty index, pooled
//     records at capacity). Checkpoint write-back streams clean records from
//     the mapping and dirty ones from the pool (node_sections), and copies
//     of a borrowed graph share the mapping (shared_ptr base).
//
// Node identifiers are dense indices assigned in insertion order and never
// reused, so a NodeId is a stable handle for priorities, histories and
// cross-structure maps (line graph, clique expansion) even across deletions.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/flat_set.hpp"

namespace dmis::graph {

class Snapshot;  // graph/snapshot.hpp — mmap-backed binary snapshot view

/// How CascadeEngine's snapshot constructor adopts a snapshot's persisted
/// state (the engine-state sections: per-node priority keys + MIS
/// membership; graph/snapshot.hpp). Defined here, next to the Snapshot
/// forward declaration, so the engine header can take it in a constructor
/// signature without pulling in the snapshot layout.
enum class SnapshotLoad : std::uint8_t {
  kAuto,  ///< warm-start iff the snapshot carries engine state (default)
  kWarm,  ///< adopt keys + membership, zero recompute (requires engine state)
};

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~static_cast<NodeId>(0);

/// Canonical 64-bit key of an undirected edge (order-insensitive).
[[nodiscard]] constexpr std::uint64_t edge_key(NodeId u, NodeId v) noexcept {
  const NodeId lo = u < v ? u : v;
  const NodeId hi = u < v ? v : u;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

class DynamicGraph {
 public:
  /// Inline-neighbor capacity of one 64-byte adjacency record; nodes whose
  /// degree ever exceeds this spill to a per-node overflow vector. Public so
  /// stats/benches can report how much of a workload lives past the spill
  /// threshold (heavy-tailed graphs are exactly where this policy is
  /// stressed).
  static constexpr std::uint32_t kInlineNeighbors = 14;

  DynamicGraph() = default;

  /// Create a graph with `n` initial nodes (ids 0 … n−1) and no edges.
  explicit DynamicGraph(NodeId n) {
    for (NodeId v = 0; v < n; ++v) (void)add_node();
  }

  /// Pre-size the edge table so `expected_edges` fit without rehashing
  /// (steady-state churn then never allocates in the edge set).
  /// Materialized mode only: a borrowed graph keeps no edge table.
  void reserve_edges(std::size_t expected_edges) {
    DMIS_ASSERT_MSG(!borrowed(), "reserve_edges on a borrowed graph");
    edges_.reserve(expected_edges);
  }

  /// Insert a fresh node; returns its id (== previous id_bound()).
  NodeId add_node() {
    const NodeId id = bound_;
    ++bound_;
    const std::size_t slot = adjacency_.size();
    adjacency_.emplace_back();
    adjacency_.back().alive = 1;
    overflow_.emplace_back();
    if (borrowed()) dirty_.ref(id) = slot;  // appended ids route via the index
    ++node_count_;
    return id;
  }

  /// Remove a node and all incident edges in one walk of its list. The id
  /// is never reused.
  void remove_node(NodeId v) {
    DMIS_ASSERT(has_node(v));
    const std::size_t slot = mutable_slot(v);
    // By index, re-reading v's record every step: a neighbor's copy-on-write
    // can grow the pool and move it.
    for (std::uint32_t i = 0; i < adjacency_[slot].size; ++i) {
      const NodeId w = record_span(slot)[i];
      if (!borrowed()) {
        const bool erased = edges_.erase(edge_key(v, w));
        DMIS_ASSERT_MSG(erased, "adjacency list inconsistent with edge set");
      }
      erase_neighbor(mutable_slot(w), v);
    }
    AdjRecord& rec = adjacency_[slot];
    edge_count_ -= rec.size;
    rec.size = 0;
    rec.alive = 0;
    overflow_[slot].clear();
    --node_count_;
  }

  /// Insert edge {u, v}; returns false if it already exists.
  bool add_edge(NodeId u, NodeId v) {
    DMIS_ASSERT(has_node(u) && has_node(v));
    DMIS_ASSERT_MSG(u != v, "self-loops are not part of the model");
    std::size_t su = u;
    std::size_t sv = v;
    if (borrowed()) {
      const Current cu = current(u);
      const Current cv = current(v);
      if (listed(cu.list, cv.list, u, v)) return false;
      su = own(u, cu.slot);
      sv = own(v, cv.slot);
    } else if (!edges_.insert(edge_key(u, v))) {
      return false;
    }
    push_neighbor(su, v);
    push_neighbor(sv, u);
    ++edge_count_;
    return true;
  }

  /// Remove edge {u, v}; returns false if it was absent.
  bool remove_edge(NodeId u, NodeId v) {
    std::size_t su = u;
    std::size_t sv = v;
    if (borrowed()) {
      const Current cu = current(u);
      const Current cv = current(v);
      if (!listed(cu.list, cv.list, u, v)) return false;
      su = own(u, cu.slot);
      sv = own(v, cv.slot);
    } else if (!edges_.erase(edge_key(u, v))) {
      return false;
    }
    erase_neighbor(su, v);
    erase_neighbor(sv, u);
    --edge_count_;
    return true;
  }

  [[nodiscard]] bool has_node(NodeId v) const noexcept {
    if (!borrowed()) return v < adjacency_.size() && adjacency_[v].alive != 0;
    if (const std::uint64_t* slot = dirty_.find(v))
      return adjacency_[static_cast<std::size_t>(*slot)].alive != 0;
    return v < base_bound_ && base_alive_[v] != 0;
  }

  /// O(1) expected in materialized mode; a borrowed graph scans the shorter
  /// of the two endpoints' current lists.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept {
    if (!borrowed()) return edges_.contains(edge_key(u, v));
    return listed(current(u).list, current(v).list, u, v);
  }

  [[nodiscard]] NodeId node_count() const noexcept { return node_count_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  /// One past the largest id ever assigned; valid ids are < id_bound().
  [[nodiscard]] NodeId id_bound() const noexcept { return bound_; }

  [[nodiscard]] std::size_t degree(NodeId v) const {
    DMIS_ASSERT(has_node(v));
    return borrowed() ? current(v).list.size() : adjacency_[v].size;
  }

  /// Current neighbors of v (unordered view). Invalidated by any mutation.
  /// In borrowed mode the span for a clean node points straight into the
  /// mapped snapshot (zero-copy); a dirty node's span points at its heap
  /// record like the materialized path.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    DMIS_ASSERT(has_node(v));
    return borrowed() ? current(v).list : record_span(v);
  }

  /// Visit every live node id in ascending order, without materializing a
  /// vector. `f` must not mutate the graph.
  template <typename F>
  void for_each_node(F&& f) const {
    for (NodeId v = 0; v < bound_; ++v)
      if (has_node(v)) f(v);
  }

  /// Visit every edge once as (lo, hi), in unspecified order, without
  /// materializing a vector: the table's slot order when materialized, each
  /// live node's current list (pairs with lo == that node) when borrowed.
  /// `f` must not mutate the graph.
  template <typename F>
  void for_each_edge(F&& f) const {
    if (borrowed()) {
      for_each_node([&](NodeId v) {
        for (const NodeId u : current(v).list)
          if (v < u) f(v, u);
      });
      return;
    }
    edges_.for_each([&f](std::uint64_t key) {
      f(static_cast<NodeId>(key >> 32), static_cast<NodeId>(key & 0xffffffffULL));
    });
  }

  /// Uniformly random present edge as (lo, hi) — O(1) expected via the edge
  /// table's slot sampling, no materialized edge vector. False iff
  /// edgeless. Materialized mode only: a borrowed graph has no edge table
  /// (the workload generators sample their own materialized reference
  /// graph).
  template <typename RngT>
  [[nodiscard]] bool sample_edge(RngT& rng, NodeId& u, NodeId& v) const {
    DMIS_ASSERT_MSG(!borrowed(), "sample_edge on a borrowed graph");
    std::uint64_t key = 0;
    if (!edges_.sample(rng, key)) return false;
    u = static_cast<NodeId>(key >> 32);
    v = static_cast<NodeId>(key & 0xffffffffULL);
    return true;
  }

  /// All live node ids, ascending. Allocates; prefer for_each_node when hot.
  [[nodiscard]] std::vector<NodeId> nodes() const {
    std::vector<NodeId> out;
    out.reserve(node_count_);
    for_each_node([&out](NodeId v) { out.push_back(v); });
    return out;
  }

  /// All edges as (lo, hi) pairs, unordered. Allocates; prefer
  /// for_each_edge when hot.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const {
    std::vector<std::pair<NodeId, NodeId>> out;
    out.reserve(edge_count());
    for_each_edge([&out](NodeId u, NodeId v) { out.emplace_back(u, v); });
    return out;
  }

  // --- borrowed (zero-copy snapshot-backed) mode ---

  /// True when this graph reads its base state from a mapped snapshot.
  [[nodiscard]] bool borrowed() const noexcept { return base_alive_ != nullptr; }

  /// Borrow a graph view over an open snapshot: ~O(1) — no per-node or
  /// per-edge work, just pointer setup. The snapshot is shared-owned so the
  /// mapping outlives every copy of the graph. A shallow-validated snapshot
  /// (SnapshotValidation::kShallow) gets lazy per-node CSR guards: the first
  /// touch of a corrupt record aborts with a clear message instead of
  /// reading out of bounds. Defined in graph/snapshot.cpp.
  [[nodiscard]] static DynamicGraph borrow(std::shared_ptr<const Snapshot> snapshot);

  /// Overlay footprint: heap-migrated adjacency records (zero in
  /// materialized mode).
  [[nodiscard]] std::size_t overlay_nodes() const noexcept { return dirty_.size(); }

  /// A materialized graph's edge table, which the version-1 snapshot
  /// writer stores verbatim. A borrowed graph has none.
  [[nodiscard]] const util::FlatSet& edge_set() const {
    DMIS_ASSERT_MSG(!borrowed(), "edge_set of a borrowed graph");
    return edges_;
  }

  /// The snapshot writer's per-node input, in one pass: alive[v] (0 or 1)
  /// and neighbors[v] (left empty for dead ids) for every v < id_bound();
  /// both spans are id_bound() long. A borrowed graph fills every base id
  /// from the mapping, then lays its dirty records on top — one overlay
  /// walk instead of an index probe per id. Defined in graph/snapshot.cpp.
  void node_sections(std::span<std::uint8_t> alive,
                     std::span<std::span<const NodeId>> neighbors) const;

  /// Bulk-rebuild a graph from a binary snapshot: adjacency records are
  /// reassembled with memcpy from the CSR arrays, and the edge table is
  /// adopted verbatim (v1–v3) or hashed once per edge from the CSR (v4).
  /// Defined in graph/snapshot.cpp (needs the Snapshot layout); aborts on a
  /// v1–v3 snapshot whose edge table fails FlatSet::restore validation.
  [[nodiscard]] static DynamicGraph load(const Snapshot& snapshot);

  /// Serialize to a snapshot file (wrapper around graph::save_snapshot).
  bool save(const std::string& path, std::string* error = nullptr) const;

  friend bool operator==(const DynamicGraph& a, const DynamicGraph& b) {
    if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count())
      return false;
    const NodeId bound = a.id_bound() < b.id_bound() ? b.id_bound() : a.id_bound();
    for (NodeId v = 0; v < bound; ++v)
      if (a.has_node(v) != b.has_node(v)) return false;
    bool equal = true;
    a.for_each_edge([&](NodeId u, NodeId v) { equal &= b.has_edge(u, v); });
    return equal;
  }

 private:
  /// One cache line per node: liveness, degree and the first
  /// kInlineNeighbors neighbors. Nodes whose degree ever exceeds the inline
  /// capacity move their list to overflow_[slot] permanently (spilled == 1)
  /// so steady-state toggling around the threshold never reallocates.
  struct AdjRecord {
    std::uint32_t size = 0;
    std::uint8_t alive = 0;
    std::uint8_t spilled = 0;
    std::uint16_t reserved = 0;
    NodeId inline_slots[14] = {};
  };
  static_assert(sizeof(AdjRecord) == 64, "AdjRecord must stay one cache line");

  [[nodiscard]] std::span<const NodeId> record_span(std::size_t slot) const {
    const AdjRecord& rec = adjacency_[slot];
    if (rec.spilled != 0) return {overflow_[slot].data(), rec.size};
    return {rec.inline_slots, rec.size};
  }

  /// Borrowed mode: where v's current list lives — its pool slot (kClean
  /// while v still reads the mapping) — and the list itself: the dirty
  /// record, else the mapped CSR list, else (an id never assigned) empty.
  /// One dirty-index probe.
  static constexpr std::size_t kClean = ~std::size_t{0};
  struct Current {
    std::size_t slot;
    std::span<const NodeId> list;
  };
  [[nodiscard]] Current current(NodeId v) const {
    if (const std::uint64_t* slot = dirty_.find(v)) {
      const auto dirty = static_cast<std::size_t>(*slot);
      return {dirty, record_span(dirty)};
    }
    if (v >= base_bound_) return {kClean, {}};
    check_base_node(v);
    const std::uint64_t begin = base_offs_[v];
    return {kClean,
            {base_nbrs_ + begin, static_cast<std::size_t>(base_offs_[v + 1] - begin)}};
  }

  /// Borrowed edge membership: whether the shorter of u's list `lu` and v's
  /// list `lv` names the other endpoint.
  [[nodiscard]] static bool listed(std::span<const NodeId> lu, std::span<const NodeId> lv,
                                   NodeId u, NodeId v) {
    if (lu.size() > lv.size()) return std::find(lv.begin(), lv.end(), u) != lv.end();
    return std::find(lu.begin(), lu.end(), v) != lu.end();
  }

  /// Heap record slot for v, for mutation: identity in materialized mode;
  /// in borrowed mode the dirty-index hit, or a copy-on-write migration of
  /// the clean base record into the pool.
  [[nodiscard]] std::size_t mutable_slot(NodeId v) {
    return borrowed() ? own(v, current(v).slot) : v;
  }

  /// `slot` from current(v) made writable: itself once dirty, else the
  /// copy-on-write migration of v's clean record into the pool (the one
  /// O(deg) moment a node pays on its first write — every later touch is a
  /// FlatMap hit). Migration grows the pool, so it moves every record.
  [[nodiscard]] std::size_t own(NodeId v, std::size_t slot) {
    if (slot != kClean) return slot;
    const std::uint64_t begin = base_offs_[v];
    const auto deg = static_cast<std::uint32_t>(base_offs_[v + 1] - begin);
    slot = adjacency_.size();
    AdjRecord rec;
    rec.alive = base_alive_[v];
    rec.size = deg;
    if (deg <= kInlineNeighbors && deg > 0)
      std::memcpy(rec.inline_slots, base_nbrs_ + begin, deg * sizeof(NodeId));
    adjacency_.push_back(rec);
    overflow_.emplace_back();
    if (deg > kInlineNeighbors) {
      adjacency_[slot].spilled = 1;
      overflow_[slot].assign(base_nbrs_ + begin, base_nbrs_ + begin + deg);
    }
    dirty_.ref(v) = slot;
    return slot;
  }

  /// Lazy CSR guard for shallow-validated bases (no-op — one null check —
  /// when the base snapshot was deep-validated at open). First touch of a
  /// node validates its offsets and neighbor ids so corruption aborts
  /// deterministically here rather than reading out of bounds later. The
  /// bitmap is shared across copies (same base, same verdicts) and updated
  /// with relaxed atomics — a racing double-check is idempotent.
  void check_base_node(NodeId v) const {
    if (base_checked_ == nullptr) return;
    std::atomic<std::uint64_t>& word = base_checked_.get()[v >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63U);
    if ((word.load(std::memory_order_relaxed) & bit) != 0) return;
    const std::uint64_t begin = base_offs_[v];
    const std::uint64_t end = base_offs_[v + 1];
    DMIS_ASSERT_MSG(begin <= end && end <= 2 * base_edge_count_,
                    "borrowed snapshot: corrupt CSR offsets (shallow-validated base)");
    for (std::uint64_t i = begin; i < end; ++i)
      DMIS_ASSERT_MSG(base_nbrs_[i] < base_bound_,
                      "borrowed snapshot: neighbor id out of range "
                      "(shallow-validated base)");
    word.fetch_or(bit, std::memory_order_relaxed);
  }

  void push_neighbor(std::size_t slot, NodeId target) {
    AdjRecord& rec = adjacency_[slot];
    if (rec.spilled != 0) {
      overflow_[slot].push_back(target);
    } else if (rec.size < kInlineNeighbors) {
      rec.inline_slots[rec.size] = target;
    } else {
      // Spill: move the inline list (plus the newcomer) to the overflow
      // vector. One-way door by design.
      auto& list = overflow_[slot];
      list.assign(rec.inline_slots, rec.inline_slots + kInlineNeighbors);
      list.push_back(target);
      rec.spilled = 1;
    }
    ++rec.size;
  }

  void erase_neighbor(std::size_t slot, NodeId target) {
    AdjRecord& rec = adjacency_[slot];
    NodeId* data = rec.spilled != 0 ? overflow_[slot].data() : rec.inline_slots;
    for (std::uint32_t i = 0; i < rec.size; ++i) {
      if (data[i] == target) {
        data[i] = data[rec.size - 1];
        --rec.size;
        if (rec.spilled != 0) overflow_[slot].pop_back();
        return;
      }
    }
    DMIS_ASSERT_MSG(false, "adjacency list inconsistent with edge set");
  }

  // Materialized mode: adjacency_/overflow_ are indexed by node id,
  // bound_ == adjacency_.size(), and edges_ holds every edge key. Borrowed
  // mode: they are the dirty-record pool, indexed through dirty_, and
  // edges_ stays empty.
  std::vector<AdjRecord> adjacency_;
  std::vector<std::vector<NodeId>> overflow_;  // only touched once spilled
  util::FlatSet edges_;
  std::size_t edge_count_ = 0;
  NodeId node_count_ = 0;
  NodeId bound_ = 0;  // one past the largest id ever assigned

  // Borrowed-mode state. base_ owns the mapping; the raw pointers cache its
  // section bases so the hot path never touches the Snapshot type (which is
  // only forward-declared here).
  std::shared_ptr<const Snapshot> base_;
  const std::uint8_t* base_alive_ = nullptr;  // non-null iff borrowed
  const std::uint64_t* base_offs_ = nullptr;
  const NodeId* base_nbrs_ = nullptr;
  NodeId base_bound_ = 0;
  std::uint64_t base_edge_count_ = 0;
  util::FlatMap dirty_;  // node id → heap pool slot
  // One bit per base node; null when the base was deep-validated at open.
  std::shared_ptr<std::atomic<std::uint64_t>[]> base_checked_;
};

}  // namespace dmis::graph
