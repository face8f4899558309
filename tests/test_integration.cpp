// End-to-end integration: long mixed workloads driven simultaneously through
// all engine paths and derived structures, cross-checked step by step.
#include <gtest/gtest.h>

#include "clustering/dynamic_clustering.hpp"
#include "core/cascade_engine.hpp"
#include "core/dist_mis.hpp"
#include "core/template_engine.hpp"
#include "derived/dynamic_matching.hpp"
#include "graph/graph_stats.hpp"
#include "workload/adversarial.hpp"
#include "workload/churn.hpp"

namespace {

using namespace dmis;

TEST(Integration, FourEnginesAgreeUnderHeavyChurn) {
  workload::ChurnConfig config;
  config.p_unmute = 0.25;
  workload::ChurnGenerator gen(graph::DynamicGraph(15), config, 1234);

  const std::uint64_t seed = 77;
  core::CascadeEngine cascade(seed);
  core::TemplateEngine tmpl(seed);
  core::DistMis dist(seed);
  core::AsyncMis async(seed, 4242, 6);
  workload::Trace bootstrap;
  for (int i = 0; i < 15; ++i) bootstrap.push_back(workload::GraphOp::add_node());
  for (const auto& op : bootstrap) {
    workload::apply(cascade, op);
    workload::apply(tmpl, op);
    workload::apply(dist, op);
    workload::apply(async, op);
  }

  for (int step = 0; step < 250; ++step) {
    const auto op = gen.next();
    workload::apply(cascade, op);
    workload::apply(tmpl, op);
    workload::apply(dist, op);
    workload::apply(async, op);

    ASSERT_TRUE(cascade.graph() == gen.graph());
    for (const auto v : cascade.graph().nodes()) {
      ASSERT_EQ(cascade.in_mis(v), tmpl.in_mis(v)) << "step " << step;
      ASSERT_EQ(cascade.in_mis(v), dist.in_mis(v)) << "step " << step;
      ASSERT_EQ(cascade.in_mis(v), async.in_mis(v)) << "step " << step;
    }
    if (step % 25 == 0) {
      cascade.verify();
      tmpl.verify();
      dist.verify();
      async.verify();
    }
  }
}

TEST(Integration, EdgeChurnLongRun) {
  // Thousands of edge toggles on a fixed node set: an edge-only churn mix
  // (add and remove must cover the whole roll, or the generator falls
  // through to node removals).
  workload::ChurnConfig config;
  config.p_add_edge = 0.5;
  config.p_remove_edge = 0.5;
  config.p_add_node = 0.0;
  config.p_remove_node = 0.0;
  workload::ChurnGenerator stream(graph::DynamicGraph(40), config, 9);
  core::CascadeEngine engine(3);
  for (int i = 0; i < 40; ++i) (void)engine.add_node();
  std::uint64_t total_adjustments = 0;
  const int ops = 3000;
  for (int i = 0; i < ops; ++i) {
    workload::apply(engine, stream.next());
    total_adjustments += engine.last_report().adjustments;
  }
  engine.verify();
  EXPECT_EQ(engine.graph().node_count(), 40U);
  EXPECT_TRUE(engine.graph() == stream.graph());
  // Theorem 1 in the long run: about one adjustment per change.
  EXPECT_LE(static_cast<double>(total_adjustments) / ops, 1.2);
}

TEST(Integration, MatchingAndClusteringShareTheWorld) {
  // Drive the same edge-level workload into a matching (line-graph MIS) and
  // a clustering (direct MIS); both must stay valid throughout.
  util::Rng rng(21);
  derived::DynamicMatching matching(5);
  clustering::DynamicClustering clusters(5);
  std::vector<graph::NodeId> live;
  for (int i = 0; i < 20; ++i) {
    live.push_back(matching.add_node());
    clusters.add_node();
  }
  for (int step = 0; step < 150; ++step) {
    const auto u = live[rng.below(live.size())];
    const auto v = live[rng.below(live.size())];
    if (u == v) continue;
    if (matching.graph().has_edge(u, v)) {
      matching.remove_edge(u, v);
      clusters.remove_edge(u, v);
    } else {
      matching.add_edge(u, v);
      clusters.add_edge(u, v);
    }
    if (step % 10 == 0) {
      matching.verify();
      clusters.verify();
    }
  }
  EXPECT_TRUE(matching.graph() == clusters.graph());
}

TEST(Integration, DistributedSurvivesAdversarialBipartiteTeardown) {
  const auto seq = workload::bipartite_deletion_sequence(6, /*abrupt=*/true);
  core::DistMis mis(workload::materialize(seq.build), 31);
  for (const auto& op : seq.deletions) {
    workload::apply(mis, op);
    mis.verify();
  }
  for (graph::NodeId v = 6; v < 12; ++v) EXPECT_TRUE(mis.in_mis(v));
}

}  // namespace
