// CascadeEngine — efficient sequential maintenance of the random-greedy MIS.
//
// Computes exactly the same structure as TemplateEngine (the unique greedy
// MIS for the current graph and priorities — history independence makes
// "same" well-defined), but repairs the invariant with a min-priority-queue
// cascade: affected nodes are re-evaluated in increasing π order, so each is
// finalized the first time it is popped and the work per update is
// O(Σ_{v ∈ touched} deg(v) · log). This is the library's dynamic MIS: the
// service, the examples and all derived structures (matching, coloring,
// clustering) run on it directly; it is also the paper's suggestion (§6)
// for the sequential dynamic setting, where the O(Δ) neighbor-notification
// cost is inherent.
//
// One op path. Every update is one step — the op's topology change plus
// the seeds §3 says it implies — and then one cascade, skipped when the op
// seeded nothing. core::apply_batch runs the same step for each op of a
// batch and then one cascade; core/batch.hpp states the seeding rule and
// why it holds for a whole batch.
//
// Why pops in π order finalize immediately: a node is only ever enqueued by a
// *lower-priority* neighbor, and the heap pops lowest priority first, so by
// the time v pops, every lower node that could still flip has already been
// finalized; v's evaluation reads only final values.
//
// Allocation-free hot path. Theorem 1 gives expected O(1) adjustments per
// change, so the per-update constant factor is dominated by bookkeeping, not
// algorithmic work. Every piece of per-cascade scratch is therefore hoisted
// into the engine and reused across updates:
//   * the binary heap lives in a member vector driven by std::push_heap /
//     std::pop_heap (no std::priority_queue construction per update);
//   * the dedup "done" set is an epoch stamp: hot_[v].visited == epoch_
//     marks v finalized in the current cascade, and bumping epoch_
//     invalidates all stamps in O(1) (with an O(n) wipe only at the 2^32−1
//     rollover, amortized to nothing);
//   * seeds accumulate in a member vector; report_.changed keeps capacity;
//   * membership is a byte array (core::Membership) with an incrementally
//     maintained counter, so mis_size() is O(1).
// In steady state (warm capacities, no node growth) an update performs zero
// heap allocations end to end; tests/test_update_alloc.cpp counts global
// operator new calls to enforce this.
//
// Cache layout. The cascade's inner loops touch, per neighbor, that node's
// priority key, its membership and its visited stamp. Keeping those in three
// parallel arrays costs up to three cache misses per neighbor, so they are
// packed into one 16-byte NodeHot record (hot_): a neighbor evaluation is a
// single cache-line access, and the enqueue pass reuses the lines the eval
// pass just warmed. PriorityMap stays the authority on keys — tests may pin
// keys at any time via priorities().set_key — and the key mirror resyncs
// lazily: PriorityMap bumps a version counter on every key write, and
// cascade() rebuilds the mirror iff the version moved (never in steady
// state). state_ (the Membership array returned by membership()) is
// maintained eagerly alongside hot_[v].state; verify() cross-checks the two.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "core/membership.hpp"
#include "core/priority.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/node_set.hpp"

namespace dmis::core {

struct BatchOp;  // core/batch.hpp
class Batch;
struct BatchResult;

struct UpdateReport {
  /// Surviving nodes whose output changed (the paper's adjustment measure).
  std::uint64_t adjustments = 0;
  /// Nodes re-evaluated during the cascade (work measure; ≥ adjustments).
  std::uint64_t evaluated = 0;
  std::vector<NodeId> changed;
};

class CascadeEngine {
 public:
  explicit CascadeEngine(std::uint64_t priority_seed) : priorities_(priority_seed) {}

  /// Build from an existing graph (initial MIS computed from scratch; the
  /// initial computation is not an "update" and produces no report). Pass
  /// an rvalue to hand the graph over without a copy.
  CascadeEngine(graph::DynamicGraph g, std::uint64_t priority_seed);

  /// Build from a binary snapshot (graph/snapshot.hpp) — the one engine
  /// start from disk. The caller supplies the graph — materialized with
  /// DynamicGraph::load or borrowed in place with DynamicGraph::borrow — and
  /// `snapshot` provides the engine-state sections; it must be the snapshot
  /// the graph came from. RecoveryManager uses this split to time graph
  /// acquisition separately from warm-up. With `mode` kAuto (default) a v2+
  /// snapshot warm-starts — persisted priority keys, membership and RNG
  /// state are bulk-loaded and the greedy recompute is skipped entirely
  /// (zero priority draws, zero cascade work; the persisted membership is
  /// the unique greedy fixpoint of the persisted keys, which verify() and
  /// dmis_snapshot verify check) — while a v1 snapshot cold-starts exactly
  /// like the graph constructor. kWarm requires engine state and aborts on
  /// a v1 file. `priority_seed` is read only for a v1 file: a warm start
  /// adopts the seed the snapshot persisted.
  CascadeEngine(graph::DynamicGraph&& g, const graph::Snapshot& snapshot,
                std::uint64_t priority_seed,
                graph::SnapshotLoad mode = graph::SnapshotLoad::kAuto);

  NodeId add_node(std::span<const NodeId> neighbors = {});
  NodeId add_node(std::initializer_list<NodeId> neighbors) {
    return add_node(std::span<const NodeId>(neighbors.begin(), neighbors.size()));
  }
  const UpdateReport& add_edge(NodeId u, NodeId v);
  const UpdateReport& remove_edge(NodeId u, NodeId v);
  const UpdateReport& remove_node(NodeId v);

  [[nodiscard]] bool in_mis(NodeId v) const {
    return v < state_.size() && state_[v] != 0;
  }
  /// Current MIS cardinality, maintained incrementally — O(1).
  [[nodiscard]] std::size_t mis_size() const noexcept { return mis_size_; }
  [[nodiscard]] graph::NodeSet mis_set() const;
  [[nodiscard]] const Membership& membership() const noexcept { return state_; }
  [[nodiscard]] const graph::DynamicGraph& graph() const noexcept { return g_; }
  [[nodiscard]] PriorityMap& priorities() noexcept { return priorities_; }
  [[nodiscard]] const PriorityMap& priorities() const noexcept { return priorities_; }
  [[nodiscard]] const UpdateReport& last_report() const noexcept { return report_; }

  /// Abort if the MIS invariant does not hold everywhere (test hook).
  void verify() const;

  /// Run the increasing-π repair pass from `seeds`; the report becomes
  /// last_report(). Updates never need it — every update and
  /// core::apply_batch seeds its own cascade. It heals a membership made
  /// wrong behind the engine's back (e.g. priorities re-pinned through
  /// priorities().set_key): seeded with every such node it lands on the
  /// unique greedy MIS again, and on a correct structure it changes nothing.
  const UpdateReport& repair(const std::vector<NodeId>& seeds);

  // --- test hooks for the epoch-stamped visited array ---
  [[nodiscard]] std::uint32_t debug_epoch() const noexcept { return epoch_; }
  /// Force the epoch counter (rollover coverage); wipes all stamps so the
  /// engine's behavior is unchanged apart from the counter value.
  void debug_set_epoch(std::uint32_t epoch);

 private:
  struct HeapEntry {
    std::uint64_t key;
    NodeId id;
  };
  /// std::push_heap comparator: "a pops after b", so the heap front is the
  /// earliest node in π. A functor (not a function pointer) so the heap
  /// primitives inline the comparison.
  struct HeapAfter {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      return priority_before(b.key, b.id, a.key, a.id);
    }
  };

  /// Per-node hot record: everything the cascade inner loops read, in one
  /// cache-line access (see "Cache layout" above).
  struct NodeHot {
    std::uint64_t key = 0;      // mirror of priorities_ (lazily resynced)
    std::uint32_t visited = 0;  // epoch stamp; == epoch_ → done this cascade
    std::uint8_t state = 0;     // mirror of state_ (eagerly maintained)
  };

  /// Compute the initial greedy MIS for g_ and size the hot arrays.
  void init_mis();
  /// Warm-start tail: adopt the snapshot's membership + key sections
  /// verbatim (bulk copies only — no priority hashing, no greedy pass, no
  /// cascade) and leave the key mirror marked in sync.
  void init_warm(const graph::Snapshot& snapshot);

  /// The one op step, shared by the four updates and apply_batch: apply
  /// `op`'s topology change and append to seeds_ exactly the nodes it can
  /// break (§3). Invalid ops abort. Returns the new id for kAddNode.
  NodeId step(const BatchOp& op, std::span<const NodeId> neighbors);
  /// Repair from seeds_ with one cascade, or none when no op seeded a node.
  const UpdateReport& settle();
  friend void apply_batch(CascadeEngine& engine, const Batch& batch, BatchResult& out);

  [[nodiscard]] bool eval(NodeId v) const;
  /// Repair pass over seeds_ (consumed).
  void cascade();
  void begin_epoch();
  void clear_report();
  void set_member(NodeId v, bool member);
  void grow_node_arrays();

  graph::DynamicGraph g_;
  PriorityMap priorities_;
  Membership state_;
  std::size_t mis_size_ = 0;
  UpdateReport report_;

  // Reused per-update scratch and the hot node table (see header comment).
  std::vector<NodeHot> hot_;
  std::vector<HeapEntry> heap_;
  std::vector<NodeId> seeds_;
  std::uint32_t epoch_ = 0;
  std::uint64_t key_version_seen_ = ~static_cast<std::uint64_t>(0);
};

}  // namespace dmis::core
