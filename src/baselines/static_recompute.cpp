#include "baselines/static_recompute.hpp"

namespace dmis::baselines {

StaticRecomputeMis::StaticRecomputeMis(const graph::DynamicGraph& g, std::uint64_t seed)
    : g_(g), seeds_(seed) {
  membership_ = luby_mis(g_, seeds_.next_u64()).in_mis;
}

sim::CostReport StaticRecomputeMis::apply(const workload::GraphOp& op) {
  workload::apply(g_, op);
  LubyResult result = luby_mis(g_, seeds_.next_u64());
  sim::CostReport cost = result.cost;
  for (const NodeId v : g_.nodes()) {
    const bool before = v < membership_.size() && membership_[v];
    if (before != result.in_mis[v]) ++cost.adjustments;
  }
  membership_ = std::move(result.in_mis);
  return cost;
}

}  // namespace dmis::baselines
