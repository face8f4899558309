#include "core/template_engine.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/greedy_mis.hpp"
#include "core/invariant.hpp"

namespace dmis::core {

TemplateEngine::TemplateEngine(const graph::DynamicGraph& g, std::uint64_t priority_seed)
    : g_(g), priorities_(priority_seed) {
  state_ = greedy_mis(g_, priorities_);
}

bool TemplateEngine::eval(NodeId v) const {
  for (const NodeId u : g_.neighbors(v))
    if (priorities_.before(u, v) && state_[u]) return false;
  return true;
}

NodeId TemplateEngine::add_node(std::span<const NodeId> neighbors) {
  const NodeId v = g_.add_node();
  priorities_.ensure(v);
  state_.resize(g_.id_bound(), false);
  for (const NodeId u : neighbors) g_.add_edge(v, u);
  // A fresh node enters with output M̄; the invariant breaks at it iff it has
  // no earlier neighbor in M, in which case the template fixes things up.
  propagate(v, /*deleted=*/false);
  return v;
}

TemplateReport TemplateEngine::add_edge(NodeId u, NodeId v) {
  DMIS_ASSERT(g_.add_edge(u, v));
  const NodeId v_star = priorities_.before(u, v) ? v : u;
  propagate(v_star, /*deleted=*/false);
  return report_;
}

TemplateReport TemplateEngine::remove_edge(NodeId u, NodeId v) {
  DMIS_ASSERT(g_.remove_edge(u, v));
  const NodeId v_star = priorities_.before(u, v) ? v : u;
  propagate(v_star, /*deleted=*/false);
  return report_;
}

TemplateReport TemplateEngine::remove_node(NodeId v) {
  DMIS_ASSERT(g_.has_node(v));
  // Footnote 7: v* is the deleted node itself; the recursion references v*'s
  // edges (G_old), so it is removed from the graph only after propagation.
  propagate(v, /*deleted=*/true);
  g_.remove_node(v);
  state_[v] = false;
  return report_;
}

void TemplateEngine::propagate(NodeId v_star, bool deleted) {
  report_ = TemplateReport{};
  if (deleted) {
    // A deleted M̄ node satisfies everyone's invariant by absence: S = ∅.
    if (!state_[v_star]) return;
  } else if (invariant_holds_at(g_, priorities_, state_, v_star)) {
    return;  // S = ∅
  }
  report_.invariant_broke = true;

  std::unordered_map<NodeId, bool> original;  // state before first S-entry
  std::unordered_set<NodeId> distinct;

  original.emplace(v_star, state_[v_star]);
  distinct.insert(v_star);
  report_.s_memberships = 1;

  // Step 1 of Algorithm 1: update the state of v*.
  state_[v_star] = deleted ? false : eval(v_star);

  // Propagation is driven by *state changes*, matching both the paper's
  // prose ("nodes whose state we must subsequently change as a result of the
  // state change of v*") and Algorithm 2's triggers ("changes to state C"):
  // a level-(i−1) member that re-evaluated to its old state influences
  // nobody. v* itself always counts as changed (its update is the change).
  std::vector<NodeId> prev{v_star};
  std::uint64_t level = 0;
  const std::uint64_t level_cap = static_cast<std::uint64_t>(g_.node_count()) + 2;

  while (!prev.empty()) {
    ++level;
    DMIS_ASSERT_MSG(level <= level_cap, "template level recursion failed to terminate");

    // Candidates: nodes with an earlier-ordered neighbor that changed state
    // at the previous level.
    std::vector<NodeId> candidates;
    {
      std::unordered_set<NodeId> seen;
      for (const NodeId w : prev) {
        for (const NodeId u : g_.neighbors(w)) {
          if (!priorities_.before(w, u)) continue;
          if (deleted && u == v_star) continue;  // the deleted node never re-enters
          if (seen.insert(u).second) candidates.push_back(u);
        }
      }
    }
    std::sort(candidates.begin(), candidates.end(), [&](NodeId a, NodeId b) {
      return priorities_.before(a, b);
    });

    std::vector<NodeId> current;
    for (const NodeId u : candidates) {
      if (state_[u]) {
        current.push_back(u);  // M-type: a changed earlier neighbor suffices
        continue;
      }
      // M̄-type: u may need to join only once *no* earlier neighbor is
      // currently in M (Algorithm 2's rule 2: "all other w ∈ I_π(v) are not
      // in M" — an influenced blocker that returned to M re-blocks).
      bool blocked = false;
      for (const NodeId w : g_.neighbors(u)) {
        if (priorities_.before(w, u) && state_[w]) {
          blocked = true;
          break;
        }
      }
      if (!blocked) current.push_back(u);
    }
    if (current.empty()) break;

    report_.levels = level;
    report_.s_memberships += current.size();
    // Update states within the level in increasing π order (the level's
    // members are mutually non-adjacent in π-increasing chains anyway, but
    // a fixed order keeps the run deterministic). Only members whose state
    // actually changed seed the next level.
    std::vector<NodeId> changed_now;
    for (const NodeId u : current) {
      original.try_emplace(u, state_[u]);
      distinct.insert(u);
      const bool next = eval(u);
      if (next != state_[u]) {
        state_[u] = next;
        changed_now.push_back(u);
      }
    }
    prev = std::move(changed_now);
  }

  report_.s_distinct = distinct.size();
  for (const auto& [v, before] : original) {
    if (deleted && v == v_star) continue;  // the deleted node has no output
    if (state_[v] != before) {
      ++report_.adjustments;
      report_.changed.push_back(v);
    }
  }
  std::sort(report_.changed.begin(), report_.changed.end());
}

graph::NodeSet TemplateEngine::mis_set() const {
  graph::NodeSet out;
  g_.for_each_node([&](NodeId v) {
    if (state_[v]) out.push_back_ascending(v);
  });
  return out;
}

void TemplateEngine::verify() const {
  NodeId bad = graph::kInvalidNode;
  DMIS_ASSERT_MSG(invariant_holds(g_, priorities_, state_, &bad),
                  "MIS invariant violated after template propagation");
}

}  // namespace dmis::core
