// Unit tests for the workload generators (churn, adversarial sequences):
// every produced trace must be valid against the evolving graph and
// reproduce the intended topology.
#include <gtest/gtest.h>

#include "core/cascade_engine.hpp"
#include "graph/generators.hpp"
#include "workload/adversarial.hpp"
#include "workload/churn.hpp"

namespace {

using namespace dmis::workload;

// Helper: materialize with 12 pre-existing nodes (the generator's start).
dmis::graph::DynamicGraph materialize_prefixed(const Trace& trace);

TEST(Churn, TraceReplaysCleanly) {
  ChurnConfig config;
  ChurnGenerator gen(dmis::graph::DynamicGraph(12), config, 5);
  const Trace trace = gen.generate(300);
  EXPECT_EQ(trace.size(), 300U);
  // Replays without assertion failures and ends equal to the generator's
  // internal graph.
  EXPECT_TRUE(materialize_prefixed(trace) == gen.graph());
}

TEST(Churn, EngineSurvivesLongChurn) {
  ChurnConfig config;
  config.p_unmute = 0.3;
  ChurnGenerator gen(dmis::graph::DynamicGraph(10), config, 7);
  dmis::core::CascadeEngine engine(9);
  for (int i = 0; i < 10; ++i) (void)engine.add_node();
  for (int step = 0; step < 500; ++step) {
    apply(engine, gen.next());
    if (step % 50 == 0) engine.verify();
  }
  engine.verify();
  EXPECT_TRUE(engine.graph() == gen.graph());
}

TEST(Churn, MixRoughlyHonored) {
  ChurnConfig config;
  config.p_add_edge = 1.0;
  config.p_remove_edge = 0.0;
  config.p_add_node = 0.0;
  config.p_remove_node = 0.0;
  ChurnGenerator gen(dmis::graph::DynamicGraph(20), config, 9);
  const Trace trace = gen.generate(50);
  for (const auto& op : trace) EXPECT_EQ(op.kind, OpKind::kAddEdge);
}

TEST(Churn, EdgeOnlyMixNeverRemovesNodes) {
  // The default edge weights with both node weights zeroed sum to 0.7:
  // rolls past 0.7 are drawn again, never taken as node removals.
  ChurnConfig config;
  config.p_add_node = 0.0;
  config.p_remove_node = 0.0;
  ChurnGenerator gen(dmis::graph::DynamicGraph(1000), config, 11);
  const Trace trace = gen.generate(10'000);
  ASSERT_EQ(trace.size(), 10'000U);
  for (const auto& op : trace)
    ASSERT_TRUE(op.kind == OpKind::kAddEdge || op.kind == OpKind::kRemoveEdgeGraceful ||
                op.kind == OpKind::kRemoveEdgeAbrupt);
  EXPECT_EQ(gen.graph().node_count(), 1000U);
}

TEST(ChurnDeathTest, MixWithNoApplicableKindAborts) {
  // Only edge removals on an edgeless graph: nothing can ever apply.
  ChurnConfig config;
  config.p_add_edge = 0.0;
  config.p_remove_edge = 1.0;
  config.p_add_node = 0.0;
  config.p_remove_node = 0.0;
  ChurnGenerator gen(dmis::graph::DynamicGraph(5), config, 3);
  EXPECT_DEATH((void)gen.next(), "no op kind in the mix can apply");
}

TEST(Adversarial, BipartiteSequenceBuildsAndDeletes) {
  const auto seq = bipartite_deletion_sequence(4);
  const auto built = materialize(seq.build);
  EXPECT_TRUE(built == dmis::graph::complete_bipartite(4, 4));
  Trace full = seq.build;
  full.insert(full.end(), seq.deletions.begin(), seq.deletions.end());
  const auto final_graph = materialize(full);
  EXPECT_EQ(final_graph.node_count(), 4U);
  EXPECT_EQ(final_graph.edge_count(), 0U);
}

TEST(Adversarial, StarCenterFirstBuildsStar) {
  const auto g = materialize(star_center_first(9));
  EXPECT_TRUE(g == dmis::graph::star(9));
}

TEST(Adversarial, ThreePathsMiddleFirstBuildsPaths) {
  const auto g = materialize(three_paths_middle_first(6));
  EXPECT_TRUE(g == dmis::graph::disjoint_three_edge_paths(6));
}

TEST(Adversarial, AlternatingBipartiteMinusPm) {
  // The alternating trace builds K_{k,k} minus a PM under the interleaved
  // labeling: left i ↔ 2i, right j ↔ 2j+1.
  const dmis::graph::NodeId k = 6;
  const auto g = materialize(bipartite_minus_pm_alternating(k));
  EXPECT_EQ(g.node_count(), 2 * k);
  EXPECT_EQ(g.edge_count(), static_cast<std::size_t>(k) * (k - 1));
  for (dmis::graph::NodeId i = 0; i < k; ++i)
    for (dmis::graph::NodeId j = 0; j < k; ++j) {
      const bool expected = i != j;
      EXPECT_EQ(g.has_edge(2 * i, 2 * j + 1), expected);
    }
}

dmis::graph::DynamicGraph materialize_prefixed(const Trace& trace) {
  Trace full;
  for (int i = 0; i < 12; ++i) full.push_back(GraphOp::add_node());
  full.insert(full.end(), trace.begin(), trace.end());
  return materialize(full);
}

}  // namespace
