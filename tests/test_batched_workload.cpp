// Batched-trace plumbing: chunking a trace into core::Batch groups and
// replaying them through apply_batch must reach exactly the graph and MIS
// the per-change replay reaches. The drill stream must keep its bytes, and
// its op slices must keep batch boundaries except at their two ends.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/identity.hpp"
#include "graph/generators.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dmis;
using workload::GraphOp;
using workload::Trace;

/// One op with its neighbor list, batch boundaries erased.
using FlatOp = std::tuple<core::BatchOp::Kind, graph::NodeId, graph::NodeId,
                          std::vector<graph::NodeId>>;

std::vector<FlatOp> flatten(const std::vector<core::Batch>& batches) {
  std::vector<FlatOp> out;
  for (const core::Batch& b : batches)
    for (const core::BatchOp& op : b.ops()) {
      const auto nbrs = b.neighbors_of(op);
      out.emplace_back(op.kind, op.u, op.v,
                       std::vector<graph::NodeId>(nbrs.begin(), nbrs.end()));
    }
  return out;
}

/// FNV-1a over every batch's size and every op's fields and neighbors.
std::uint64_t stream_hash(const std::vector<core::Batch>& stream) {
  std::uint64_t h = util::kFnv1aSeed;
  const auto feed = [&h](std::uint64_t word) {
    h = util::fnv1a64(reinterpret_cast<const std::uint8_t*>(&word), sizeof word, h);
  };
  for (const core::Batch& b : stream) {
    feed(b.size());
    for (const core::BatchOp& op : b.ops()) {
      feed(static_cast<std::uint64_t>(op.kind));
      feed(op.u);
      feed(op.v);
      for (const graph::NodeId w : b.neighbors_of(op)) feed(w);
    }
  }
  return h;
}

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

TEST(DrillStream, KeepsItsBytes) {
  // Recorded from the stream copies the drills, the kill -9 test and the
  // recovery benches used to carry: batch cuts, ops and neighbor lists. At
  // 0 ops the grow prefix still runs whole.
  EXPECT_EQ(stream_hash(workload::drill_stream(100, 6.0, 42, 3000, 8)),
            0xe267117cb0dd1c39ULL);
  EXPECT_EQ(stream_hash(workload::drill_stream(100, 6.0, 424242, 2000, 6)),
            0xd0ef8bc9171eb825ULL);
  EXPECT_EQ(stream_hash(workload::drill_stream(100, 6.0, 42, 0, 8)),
            0x7e244719e32bb641ULL);
}

TEST(DrillStream, SliceSplitsBatchesOnlyAtItsEnds) {
  const auto stream = workload::drill_stream(40, 6.0, 5, 301, 8);
  const auto all = flatten(stream);
  for (std::uint64_t cut = 0; cut <= all.size(); ++cut) {
    const auto head = workload::slice(stream, 0, cut);
    const auto tail = workload::slice(stream, cut);
    auto joined = flatten(head);
    const auto rest = flatten(tail);
    joined.insert(joined.end(), rest.begin(), rest.end());
    ASSERT_EQ(joined, all) << "cut " << cut;
    // Only a batch with the cut strictly inside splits; the rest stay whole.
    const bool inside = cut % 8 != 0 && cut < all.size();
    ASSERT_EQ(head.size() + tail.size(), stream.size() + (inside ? 1 : 0)) << cut;
    for (std::size_t i = 0; i + 1 < head.size(); ++i) ASSERT_EQ(head[i].size(), 8U);
    for (std::size_t i = 1; i + 1 < tail.size(); ++i) ASSERT_EQ(tail[i].size(), 8U);
  }
  EXPECT_TRUE(workload::slice(stream, 20, 10).empty());
  EXPECT_TRUE(workload::slice(stream, all.size()).empty());
  const auto inner = workload::slice(stream, 13, 30);
  ASSERT_EQ(inner.size(), 3U);
  EXPECT_EQ(inner[0].size(), 3U);
  EXPECT_EQ(inner[1].size(), 8U);
  EXPECT_EQ(inner[2].size(), 6U);
}

TEST(DrillStream, SlicedPrefixEqualsOpByOpReplay) {
  const auto stream = workload::drill_stream(40, 6.0, 5, 301, 8);
  const auto all = flatten(stream);
  core::CascadeEngine one_by_one(3);
  for (std::uint64_t prefix = 0; prefix <= all.size(); ++prefix) {
    if (prefix > 0) {
      const auto& [kind, u, v, nbrs] = all[prefix - 1];
      core::Batch single;
      single.append(kind, u, v, nbrs);
      (void)core::apply_batch(one_by_one, single);
    }
    core::CascadeEngine sliced(3);
    for (const core::Batch& b : workload::slice(stream, 0, prefix))
      (void)core::apply_batch(sliced, b);
    ASSERT_EQ(core::state_diff(sliced, one_by_one), "") << "first " << prefix << " ops";
  }
}

}  // namespace
