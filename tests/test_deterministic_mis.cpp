// Unit tests for the deterministic dynamic MIS baseline and the paper's
// §1.1 lower-bound construction: on K_{k,k}, deleting the MIS side node by
// node forces a single change with k adjustments.
#include <gtest/gtest.h>

#include "baselines/deterministic_mis.hpp"
#include "core/cascade_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"

namespace {

using namespace dmis::baselines;
using dmis::core::NodeId;

TEST(DeterministicMis, IdOrderGreedyOnPath) {
  DeterministicMis mis;
  (void)mis.add_node();
  (void)mis.add_node({0});
  (void)mis.add_node({1});
  (void)mis.add_node({2});
  EXPECT_TRUE(mis.in_mis(0));
  EXPECT_FALSE(mis.in_mis(1));
  EXPECT_TRUE(mis.in_mis(2));
  EXPECT_FALSE(mis.in_mis(3));
  mis.verify();
}

TEST(DeterministicMis, ReproducibleByConstruction) {
  auto build = [] {
    DeterministicMis mis(dmis::graph::complete_bipartite(4, 4));
    std::vector<bool> out;
    for (NodeId v = 0; v < 8; ++v) out.push_back(mis.in_mis(v));
    return out;
  };
  EXPECT_EQ(build(), build());
}

TEST(DeterministicMis, LowerBoundFlipOnBipartite) {
  const NodeId k = 8;
  DeterministicMis mis(dmis::graph::complete_bipartite(k, k));
  // Id order puts the whole left side (0 … k−1) in the MIS.
  for (NodeId v = 0; v < k; ++v) EXPECT_TRUE(mis.in_mis(v));
  for (NodeId v = k; v < 2 * k; ++v) EXPECT_FALSE(mis.in_mis(v));

  std::uint64_t max_adjustments = 0;
  std::uint64_t total = 0;
  for (NodeId v = 0; v < k; ++v) {
    const auto rep = mis.remove_node(v);
    max_adjustments = std::max(max_adjustments, rep.adjustments);
    total += rep.adjustments;
    mis.verify();
  }
  // The final deletion flips the entire right side in: k adjustments at once.
  EXPECT_EQ(max_adjustments, k);
  EXPECT_EQ(total, k);
  for (NodeId v = k; v < 2 * k; ++v) EXPECT_TRUE(mis.in_mis(v));
}

TEST(DeterministicMis, RandomizedAvoidsTheConcentratedFlip) {
  // Same deletion sequence under random priorities: the flip happens at a
  // uniformly random step, so expected max-per-change is far below k for a
  // single run only when the flip point is late; across seeds the *mean
  // per-change* cost stays ~1 while the deterministic run always pays k at
  // once. Here we check mean-per-change over seeds ≈ 1.
  const NodeId k = 12;
  dmis::util::OnlineStats per_change;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    dmis::core::CascadeEngine mis(dmis::graph::complete_bipartite(k, k), seed);
    for (NodeId v = 0; v < k; ++v) {
      mis.remove_node(v);
      per_change.add(static_cast<double>(mis.last_report().adjustments));
    }
  }
  EXPECT_LE(per_change.mean(), 1.3);
}

TEST(DeterministicMis, MaintainsValidMisUnderChurn) {
  DeterministicMis mis(dmis::graph::grid(5, 5));
  dmis::util::Rng rng(3);
  for (int step = 0; step < 100; ++step) {
    const NodeId u = static_cast<NodeId>(rng.below(25));
    const NodeId v = static_cast<NodeId>(rng.below(25));
    if (u == v || !mis.graph().has_node(u) || !mis.graph().has_node(v)) continue;
    if (mis.graph().has_edge(u, v)) mis.remove_edge(u, v);
    else mis.add_edge(u, v);
    mis.verify();
  }
}

}  // namespace
