#include "core/cascade_engine.hpp"

#include <algorithm>
#include <utility>

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
  if (graph::snapshot_load_warm(mode, snapshot.has_engine_state())) {
    DMIS_ASSERT_MSG(snapshot.has_engine_state(),
                    "warm start requested from a graph-only (v1) snapshot");
    priorities_.bulk_load(snapshot.priority_keys(), snapshot.engine_ext().rng_state,
                          snapshot.priority_seed());
    init_warm(snapshot);
    return;
  }
  if (mode == graph::SnapshotLoad::kColdKeys) {
    DMIS_ASSERT_MSG(snapshot.has_engine_state(),
                    "kColdKeys requested from a graph-only (v1) snapshot");
    // Pin the persisted permutation, then recompute: greedy_mis's ensure()
    // calls see every id assigned and draw nothing, so this engine and a
    // warm-started twin share both the key array and the future RNG stream.
    priorities_.bulk_load(snapshot.priority_keys(), snapshot.engine_ext().rng_state,
                          snapshot.priority_seed());
  }
  init_mis();
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

NodeId CascadeEngine::add_node(std::span<const NodeId> neighbors) {
  const NodeId v = raw_add_node(neighbors);
  seeds_.clear();
  seeds_.push_back(v);
  cascade();
  return v;
}

const UpdateReport& CascadeEngine::add_edge(NodeId u, NodeId v) {
  DMIS_ASSERT(g_.add_edge(u, v));
  // The invariant can only break at the later endpoint, and only when both
  // endpoints are currently in the MIS (§3) — check states first so the
  // common no-op path skips the priority lookups entirely.
  if (state_[u] != 0 && state_[v] != 0) {
    seeds_.clear();
    seeds_.push_back(priorities_.before(u, v) ? v : u);
    cascade();
  } else {
    clear_report();
  }
  return report_;
}

const UpdateReport& CascadeEngine::remove_edge(NodeId u, NodeId v) {
  DMIS_ASSERT(g_.remove_edge(u, v));
  // Deleting an edge can only break the later endpoint: it may have just
  // lost its only earlier MIS neighbor. Both-M cannot happen across an edge,
  // so a cascade is only possible when exactly one endpoint is in M — and
  // then only if the member is the earlier one. Checking the (cheap) states
  // first keeps priority lookups off the common no-op path.
  if ((state_[u] != 0) != (state_[v] != 0)) {
    const NodeId lo = priorities_.before(u, v) ? u : v;
    const NodeId hi = lo == u ? v : u;
    if (state_[lo] != 0) {
      seeds_.clear();
      seeds_.push_back(hi);
      cascade();
      return report_;
    }
  }
  clear_report();
  return report_;
}

const UpdateReport& CascadeEngine::remove_node(NodeId v) {
  DMIS_ASSERT(g_.has_node(v));
  seeds_.clear();
  // Deleting an M̄ node affects nobody (no invariant references it); deleting
  // an M node can free exactly its later-ordered neighbors.
  if (state_[v] != 0)
    for (const NodeId u : g_.neighbors(v))
      if (priorities_.before(v, u)) seeds_.push_back(u);
  g_.remove_node(v);
  if (state_[v] != 0) set_member(v, false);
  cascade();
  return report_;
}

NodeId CascadeEngine::raw_add_node(std::span<const NodeId> neighbors) {
  const NodeId v = g_.add_node();
  // If the mirror was in sync, the only key event is this node's own draw:
  // patch the one entry and stay in sync, so add_node never triggers the
  // O(n) version-resync rescan in begin_epoch().
  const bool was_in_sync = key_version_seen_ == priorities_.version();
  const std::uint64_t key = priorities_.ensure(v);
  grow_node_arrays();
  if (was_in_sync) {
    hot_[v].key = key;
    key_version_seen_ = priorities_.version();
  }
  for (const NodeId u : neighbors) g_.add_edge(v, u);
  return v;
}

void CascadeEngine::raw_add_edge(NodeId u, NodeId v) {
  DMIS_ASSERT(g_.add_edge(u, v));
}

void CascadeEngine::raw_remove_edge(NodeId u, NodeId v) {
  DMIS_ASSERT(g_.remove_edge(u, v));
}

std::vector<NodeId> CascadeEngine::raw_remove_node(NodeId v) {
  std::vector<NodeId> former;
  raw_remove_node(v, former);
  return former;
}

void CascadeEngine::raw_remove_node(NodeId v, std::vector<NodeId>& former_out) {
  DMIS_ASSERT(g_.has_node(v));
  const auto nb = g_.neighbors(v);
  former_out.insert(former_out.end(), nb.begin(), nb.end());
  g_.remove_node(v);
  if (state_[v] != 0) set_member(v, false);
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
