// Batched-trace plumbing: chunking a trace into core::Batch groups and
// replaying them through apply_batch must reach exactly the graph and MIS
// the per-change replay reaches.
#include <gtest/gtest.h>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "graph/generators.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dmis;
using workload::GraphOp;
using workload::Trace;

TEST(BatchedWorkload, ChunkedTraceMaterializesSameGraph) {
  // Self-contained trace: grow the generator's 30 initial nodes first, then
  // churn — so replaying from an empty engine keeps positional ids aligned.
  workload::ChurnGenerator gen(graph::DynamicGraph(30), {}, 41);
  Trace trace = workload::grow_trace(graph::DynamicGraph(30));
  const Trace churn = gen.generate(500);
  trace.insert(trace.end(), churn.begin(), churn.end());
  const graph::DynamicGraph expected = workload::materialize(trace);

  for (const std::size_t batch_size : {1UL, 7UL, 64UL, 1000UL}) {
    core::CascadeEngine engine(0);
    for (const core::Batch& batch : workload::chunk_trace(trace, batch_size))
      (void)core::apply_batch(engine, batch);
    EXPECT_TRUE(engine.graph() == expected) << "batch_size " << batch_size;
    engine.verify();
  }
}

TEST(BatchedWorkload, ChunkedReplayMatchesPerChangeReplay) {
  workload::ChurnGenerator gen(graph::DynamicGraph(25), {}, 17);
  Trace trace = workload::grow_trace(graph::DynamicGraph(25));
  const Trace churn = gen.generate(400);
  trace.insert(trace.end(), churn.begin(), churn.end());

  core::CascadeEngine per_change(5);
  workload::replay(per_change, trace);

  core::CascadeEngine batched(5);
  for (const core::Batch& batch : workload::chunk_trace(trace, 32))
    (void)core::apply_batch(batched, batch);

  ASSERT_TRUE(per_change.graph() == batched.graph());
  per_change.graph().for_each_node([&](graph::NodeId v) {
    EXPECT_EQ(per_change.in_mis(v), batched.in_mis(v)) << "node " << v;
  });
}

TEST(BatchedWorkload, ChurnBatchesDriveBatchEngine) {
  util::Rng graph_rng(2);
  const auto g = graph::random_avg_degree(120, 6.0, graph_rng);
  workload::ChurnConfig config;
  config.p_add_node = 0.1;
  config.p_remove_node = 0.1;
  workload::ChurnGenerator gen(g, config, 33);
  const auto batches = workload::churn_batches(gen, 12, 50);
  ASSERT_EQ(batches.size(), 12U);
  for (const auto& b : batches) EXPECT_EQ(b.size(), 50U);

  core::CascadeEngine engine(g, 55);
  for (const core::Batch& batch : batches) {
    (void)core::apply_batch(engine, batch);
    engine.verify();
  }
  ASSERT_TRUE(engine.graph() == gen.graph());
}

}  // namespace
