#include "workload/churn.hpp"

namespace dmis::workload {

void TraceGenerator::track_add(NodeId v) {
  if (pos_.size() <= v) pos_.resize(static_cast<std::size_t>(v) + 1, kNoPos);
  pos_[v] = live_.size();
  live_.push_back(v);
}

void TraceGenerator::track_remove(NodeId v) {
  const std::size_t i = pos_[v];
  pos_[live_.back()] = i;
  live_[i] = live_.back();
  live_.pop_back();
  pos_[v] = kNoPos;
}

NodeId TraceGenerator::random_node() {
  // O(1) via the maintained live list — materializing g_.nodes() per op
  // would make generating million-node batch workloads quadratic.
  DMIS_ASSERT(!live_.empty());
  return live_[rng_.below(live_.size())];
}

NodeId TraceGenerator::preferential_node() {
  NodeId u = 0;
  NodeId v = 0;
  if (!random_edge(u, v)) return random_node();
  return rng_.next_bit() ? u : v;
}

NodeId TraceGenerator::max_degree_node() const {
  DMIS_ASSERT(!live_.empty());
  NodeId best = live_.front();
  std::size_t best_deg = g_.degree(best);
  for (const NodeId v : live_) {
    const std::size_t d = g_.degree(v);
    if (d > best_deg || (d == best_deg && v < best)) {
      best = v;
      best_deg = d;
    }
  }
  return best;
}

bool TraceGenerator::random_edge(NodeId& u, NodeId& v) {
  // O(1) expected via the edge table's slot sampling (no edges() vector).
  return g_.sample_edge(rng_, u, v);
}

bool TraceGenerator::random_non_edge(NodeId& u, NodeId& v) {
  if (g_.node_count() < 2) return false;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const NodeId a = random_node();
    const NodeId b = random_node();
    if (a != b && !g_.has_edge(a, b)) {
      u = a;
      v = b;
      return true;
    }
  }
  return false;
}

GraphOp TraceGenerator::emit_add_node(std::vector<NodeId> neighbors, bool unmute) {
  GraphOp op = unmute ? GraphOp::unmute_node(std::move(neighbors))
                      : GraphOp::add_node(std::move(neighbors));
  const NodeId v = g_.add_node();
  track_add(v);
  for (const NodeId u : op.neighbors) g_.add_edge(v, u);
  return op;
}

GraphOp TraceGenerator::emit_remove_node(NodeId v, bool abrupt) {
  GraphOp op = GraphOp::remove_node(v, abrupt);
  g_.remove_node(v);
  track_remove(v);
  return op;
}

GraphOp TraceGenerator::emit_add_edge(NodeId u, NodeId v) {
  GraphOp op = GraphOp::add_edge(u, v);
  g_.add_edge(u, v);
  return op;
}

GraphOp TraceGenerator::emit_remove_edge(NodeId u, NodeId v, bool abrupt) {
  GraphOp op = GraphOp::remove_edge(u, v, abrupt);
  g_.remove_edge(u, v);
  return op;
}

GraphOp ChurnGenerator::next() {
  // A drawn kind that cannot apply here is re-drawn, so at least one kind
  // with weight must be able to apply, or the loop would never return.
  const std::uint64_t n = g_.node_count();
  DMIS_ASSERT_MSG(config_.p_add_node > 0 || (config_.p_remove_node > 0 && n > 1) ||
                      (config_.p_remove_edge > 0 && g_.edge_count() > 0) ||
                      (config_.p_add_edge > 0 && g_.edge_count() < n * (n - 1) / 2),
                  "ChurnGenerator: no op kind in the mix can apply to the graph");
  const double edge_ops = config_.p_add_edge + config_.p_remove_edge;
  const double total = edge_ops + config_.p_add_node + config_.p_remove_node;
  for (;;) {
    const double roll = rng_.real01();
    if (roll < config_.p_add_edge) {
      NodeId u = 0;
      NodeId v = 0;
      if (!random_non_edge(u, v)) continue;
      return emit_add_edge(u, v);
    }
    if (roll < edge_ops) {
      NodeId u = 0;
      NodeId v = 0;
      if (!random_edge(u, v)) continue;
      return emit_remove_edge(u, v, rng_.chance(config_.p_abrupt));
    }
    if (roll < edge_ops + config_.p_add_node) {
      std::vector<NodeId> neighbors;
      for (std::uint32_t i = 0; i < config_.attach_degree && live_count() > 0; ++i) {
        const NodeId candidate = random_node();
        bool fresh = true;
        for (const NodeId existing : neighbors) fresh &= existing != candidate;
        if (fresh) neighbors.push_back(candidate);
      }
      return emit_add_node(std::move(neighbors), rng_.chance(config_.p_unmute));
    }
    // Past the mix total (a mix summing below 1): draw again.
    if (roll >= total) continue;
    if (g_.node_count() <= 1) continue;  // keep the graph non-trivial
    // Two rng_ draws: sequence them explicitly (argument evaluation order
    // would be unspecified) so the draw stream — and with it every committed
    // deterministic baseline — is stable across compilers.
    const NodeId victim = random_node();
    return emit_remove_node(victim, rng_.chance(config_.p_abrupt));
  }
}

}  // namespace dmis::workload
