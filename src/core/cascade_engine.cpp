#include "core/cascade_engine.hpp"

#include <algorithm>
#include <utility>

#include "core/batch.hpp"
#include "core/greedy_mis.hpp"
#include "core/invariant.hpp"
#include "graph/snapshot.hpp"

namespace dmis::core {

CascadeEngine::CascadeEngine(graph::DynamicGraph g, std::uint64_t priority_seed)
    : g_(std::move(g)), priorities_(priority_seed) {
  init_mis();
}

CascadeEngine::CascadeEngine(graph::DynamicGraph&& g, const graph::Snapshot& snapshot,
                             std::uint64_t priority_seed, graph::SnapshotLoad mode)
    : g_(std::move(g)), priorities_(priority_seed) {
  if (!snapshot.has_engine_state()) {
    DMIS_ASSERT_MSG(mode == graph::SnapshotLoad::kAuto,
                    "warm start requested from a graph-only (v1) snapshot");
    init_mis();
    return;
  }
  priorities_.bulk_load(snapshot.priority_keys(), snapshot.engine_ext().rng_state,
                        snapshot.priority_seed());
  init_warm(snapshot);
}

void CascadeEngine::init_mis() {
  state_ = greedy_mis(g_, priorities_);
  grow_node_arrays();
  for (NodeId v = 0; v < state_.size(); ++v) {
    mis_size_ += state_[v];
    hot_[v].state = state_[v];
  }
}

void CascadeEngine::init_warm(const graph::Snapshot& snapshot) {
  const auto member = snapshot.membership_bytes();
  const auto keys = snapshot.priority_keys();
  state_.assign(member.begin(), member.end());
  mis_size_ = static_cast<std::size_t>(snapshot.mis_size());  // validated on open
  grow_node_arrays();
  // One streaming pass fills the hot table from the mapped sections; marking
  // the key mirror in sync here means the first cascade skips the O(n)
  // version-resync rescan too — a warm start performs no per-node work
  // beyond these bulk copies.
  for (NodeId v = 0; v < hot_.size(); ++v) {
    hot_[v].key = keys[v];
    hot_[v].state = state_[v];
  }
  key_version_seen_ = priorities_.version();
}

bool CascadeEngine::eval(NodeId v) const {
  const std::uint64_t kv = hot_[v].key;
  for (const NodeId u : g_.neighbors(v)) {
    const NodeHot& h = hot_[u];
    if (h.state != 0 && priority_before(h.key, u, kv, v)) return false;
  }
  return true;
}

void CascadeEngine::set_member(NodeId v, bool member) {
  mis_size_ += member ? 1 : static_cast<std::size_t>(-1);
  state_[v] = member ? 1 : 0;
  hot_[v].state = state_[v];
}

void CascadeEngine::clear_report() {
  report_.adjustments = 0;
  report_.evaluated = 0;
  report_.changed.clear();
}

void CascadeEngine::grow_node_arrays() {
  if (state_.size() < g_.id_bound()) state_.resize(g_.id_bound(), 0);
  if (hot_.size() < g_.id_bound()) hot_.resize(g_.id_bound());
}

void CascadeEngine::begin_epoch() {
  // Resync the key mirror iff any priority was drawn or pinned since the
  // last cascade (never in steady state — no node growth, no set_key).
  if (key_version_seen_ != priorities_.version()) {
    key_version_seen_ = priorities_.version();
    for (NodeId v = 0; v < hot_.size(); ++v)
      if (priorities_.is_assigned(v)) hot_[v].key = priorities_.key_unchecked(v);
  }
  if (epoch_ == ~static_cast<std::uint32_t>(0)) {
    // Rollover: stale stamps from 2^32−1 cascades ago would alias the new
    // epoch, so wipe them all once and restart the counter.
    for (NodeHot& h : hot_) h.visited = 0;
    epoch_ = 0;
  }
  ++epoch_;
}

void CascadeEngine::cascade() {
  clear_report();
  begin_epoch();
  heap_.clear();
  for (const NodeId v : seeds_) {
    DMIS_ASSERT_MSG(v < hot_.size(), "repair seed references an unknown node id");
    heap_.push_back({hot_[v].key, v});
    std::push_heap(heap_.begin(), heap_.end(), HeapAfter{});
  }
  seeds_.clear();

  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), HeapAfter{});
    const NodeId v = heap_.back().id;
    heap_.pop_back();
    if (hot_[v].visited == epoch_) continue;  // duplicate enqueue
    hot_[v].visited = epoch_;
    if (!g_.has_node(v)) continue;  // seeded then deleted within a batch
    ++report_.evaluated;
    const bool next = eval(v);
    if (next == (state_[v] != 0)) continue;
    set_member(v, next);
    report_.changed.push_back(v);
    const std::uint64_t kv = hot_[v].key;
    for (const NodeId u : g_.neighbors(v)) {
      const NodeHot& h = hot_[u];  // line still warm from eval(v)
      // If v just joined M, a later M̄ neighbor merely gains one more
      // blocker and stays M̄ — only later M neighbors must flip. (If it is
      // instead freed later by its real blocker leaving M, that blocker
      // enqueues it.) If v left M, every later neighbor was necessarily M̄
      // (it had the earlier member v) and may now rise, so enqueue them all.
      if (next && h.state == 0) continue;
      if (h.visited != epoch_ && priority_before(kv, v, h.key, u)) {
        heap_.push_back({h.key, u});
        std::push_heap(heap_.begin(), heap_.end(), HeapAfter{});
      }
    }
  }
  report_.adjustments = report_.changed.size();
  if (report_.changed.size() > 1)
    std::sort(report_.changed.begin(), report_.changed.end());
}

NodeId CascadeEngine::step(const BatchOp& op, std::span<const NodeId> neighbors) {
  // Each rule reads the (cheap) states before any priority lookup, so the
  // common no-op path skips them. Within a batch the states are still the
  // pre-batch ones — steps change no membership but a removed node's own —
  // so each op is judged against the MIS the batch started from.
  const NodeId u = op.u;
  const NodeId v = op.v;
  switch (op.kind) {
    case BatchOp::Kind::kAddEdge:
      DMIS_ASSERT(g_.add_edge(u, v));
      // Only the later endpoint can break, and only when both ends are in M.
      if (state_[u] != 0 && state_[v] != 0)
        seeds_.push_back(priorities_.before(u, v) ? v : u);
      break;
    case BatchOp::Kind::kRemoveEdge:
      DMIS_ASSERT(g_.remove_edge(u, v));
      // Only the later end can break — it may have lost its only earlier M
      // neighbor — so the earlier end must be in M and the later one not.
      if ((state_[u] != 0) != (state_[v] != 0)) {
        const NodeId member = state_[u] != 0 ? u : v;
        const NodeId other = member == u ? v : u;
        if (priorities_.before(member, other)) seeds_.push_back(other);
      }
      break;
    case BatchOp::Kind::kAddNode: {
      const NodeId fresh = g_.add_node();
      // If the mirror was in sync, the only key event is this node's own
      // draw: patch the one entry and stay in sync, so node insertion never
      // triggers the O(n) version-resync rescan in begin_epoch().
      const bool was_in_sync = key_version_seen_ == priorities_.version();
      const std::uint64_t key = priorities_.ensure(fresh);
      grow_node_arrays();
      if (was_in_sync) {
        hot_[fresh].key = key;
        key_version_seen_ = priorities_.version();
      }
      for (const NodeId w : neighbors) g_.add_edge(fresh, w);
      // The new node starts in M̄; nobody else can break (it blocks no one).
      seeds_.push_back(fresh);
      return fresh;
    }
    case BatchOp::Kind::kRemoveNode:
      DMIS_ASSERT(g_.has_node(u));
      // Removing an M̄ node frees nobody; removing an M node can free only
      // its later neighbors.
      if (state_[u] != 0) {
        for (const NodeId w : g_.neighbors(u))
          if (priorities_.before(u, w)) seeds_.push_back(w);
        set_member(u, false);
      }
      g_.remove_node(u);
      break;
  }
  return graph::kInvalidNode;
}

const UpdateReport& CascadeEngine::settle() {
  if (seeds_.empty()) clear_report();
  else cascade();
  return report_;
}

NodeId CascadeEngine::add_node(std::span<const NodeId> neighbors) {
  const NodeId v = step({BatchOp::Kind::kAddNode, 0, 0, 0, 0}, neighbors);
  settle();
  return v;
}

const UpdateReport& CascadeEngine::add_edge(NodeId u, NodeId v) {
  step({BatchOp::Kind::kAddEdge, u, v, 0, 0}, {});
  return settle();
}

const UpdateReport& CascadeEngine::remove_edge(NodeId u, NodeId v) {
  step({BatchOp::Kind::kRemoveEdge, u, v, 0, 0}, {});
  return settle();
}

const UpdateReport& CascadeEngine::remove_node(NodeId v) {
  step({BatchOp::Kind::kRemoveNode, v, v, 0, 0}, {});
  return settle();
}

const UpdateReport& CascadeEngine::repair(const std::vector<NodeId>& seeds) {
  seeds_.assign(seeds.begin(), seeds.end());
  cascade();
  return report_;
}

void CascadeEngine::debug_set_epoch(std::uint32_t epoch) {
  for (NodeHot& h : hot_) h.visited = 0;
  epoch_ = epoch;
}

graph::NodeSet CascadeEngine::mis_set() const {
  graph::NodeSet out;
  out.reserve(mis_size_);
  g_.for_each_node([&](NodeId v) {
    if (state_[v] != 0) out.push_back_ascending(v);
  });
  return out;
}

void CascadeEngine::verify() const {
  DMIS_ASSERT_MSG(invariant_holds(g_, priorities_, state_, nullptr),
                  "MIS invariant violated after cascade");
  std::size_t count = 0;
  for (NodeId v = 0; v < state_.size(); ++v) {
    count += state_[v];
    DMIS_ASSERT_MSG(hot_[v].state == state_[v], "hot-table state mirror drifted");
  }
  DMIS_ASSERT_MSG(count == mis_size_, "incremental MIS-size counter drifted");
}

}  // namespace dmis::core
