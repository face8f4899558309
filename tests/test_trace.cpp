// Unit tests for trace materialization and the per-engine apply dispatch.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "workload/churn.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dmis::workload;

TEST(Trace, GrowTraceRebuildsGraph) {
  dmis::util::Rng rng(1);
  const auto g = dmis::graph::erdos_renyi(25, 0.15, rng);
  const auto trace = grow_trace(g);
  EXPECT_TRUE(materialize(trace) == g);
}

TEST(Trace, AllEnginePathsAcceptTheSameTrace) {
  ChurnConfig config;
  config.p_unmute = 0.5;
  ChurnGenerator gen(dmis::graph::DynamicGraph(6), config, 21);
  Trace trace;
  for (int i = 0; i < 6; ++i) trace.push_back(GraphOp::add_node());
  const auto churn = gen.generate(40);
  trace.insert(trace.end(), churn.begin(), churn.end());

  dmis::core::CascadeEngine cascade(3);
  dmis::core::TemplateEngine tmpl(3);
  dmis::core::DistMis dist(3);
  dmis::core::AsyncMis async(3, 99);
  replay(cascade, trace);
  replay(tmpl, trace);
  replay(dist, trace);
  replay(async, trace);

  ASSERT_TRUE(cascade.graph() == tmpl.graph());
  ASSERT_TRUE(cascade.graph() == dist.graph());
  ASSERT_TRUE(cascade.graph() == async.graph());
  for (const auto v : cascade.graph().nodes()) {
    EXPECT_EQ(cascade.in_mis(v), tmpl.in_mis(v));
    EXPECT_EQ(cascade.in_mis(v), dist.in_mis(v));
    EXPECT_EQ(cascade.in_mis(v), async.in_mis(v));
  }
}

}  // namespace
