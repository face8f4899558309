// Unit tests for batch (simultaneous) updates — the §6 multi-change
// extension. A batch must land on exactly the same structure as applying
// its ops one at a time (same priorities ⇒ same greedy MIS of the final
// graph), while never paying *more* adjustments than the sequential route.
#include <gtest/gtest.h>

#include "core/batch.hpp"
#include "core/greedy_mis.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "util/stats.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"

namespace {

using namespace dmis::core;

TEST(Batch, EmptyBatchIsNoOp) {
  CascadeEngine engine(1);
  (void)engine.add_node();
  const auto result = apply_batch(engine, Batch{});
  EXPECT_EQ(result.report.adjustments, 0U);
  EXPECT_EQ(result.report.evaluated, 0U);
  engine.verify();
}

TEST(Batch, SingleOpMatchesDirectCall) {
  CascadeEngine direct(7);
  CascadeEngine batched(7);
  const NodeId a1 = direct.add_node();
  const NodeId b1 = direct.add_node();
  Batch two_nodes;
  two_nodes.add_node();
  two_nodes.add_node();
  const auto r1 = apply_batch(batched, two_nodes);
  ASSERT_EQ(r1.new_nodes.size(), 2U);

  const auto direct_rep = direct.add_edge(a1, b1);
  Batch one_edge;
  one_edge.add_edge(r1.new_nodes[0], r1.new_nodes[1]);
  const auto batch_rep = apply_batch(batched, one_edge);
  EXPECT_EQ(direct_rep.adjustments, batch_rep.report.adjustments);
  for (const NodeId v : direct.graph().nodes())
    EXPECT_EQ(direct.in_mis(v), batched.in_mis(v));
}

TEST(Batch, FinalStateEqualsSequential) {
  dmis::util::Rng rng(3);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    CascadeEngine sequential(seed);
    CascadeEngine batched(seed);
    for (int i = 0; i < 20; ++i) {
      (void)sequential.add_node();
    }
    Batch twenty_nodes;
    for (int i = 0; i < 20; ++i) twenty_nodes.add_node();
    (void)apply_batch(batched, twenty_nodes);

    // Build a random batch of edge toggles + node ops against a mirror.
    dmis::graph::DynamicGraph mirror(20);
    Batch batch;
    for (int i = 0; i < 15; ++i) {
      const auto u = static_cast<NodeId>(rng.below(20));
      const auto v = static_cast<NodeId>(rng.below(20));
      if (u == v || !mirror.has_node(u) || !mirror.has_node(v)) continue;
      if (mirror.has_edge(u, v)) {
        mirror.remove_edge(u, v);
        batch.remove_edge(u, v);
      } else {
        mirror.add_edge(u, v);
        batch.add_edge(u, v);
      }
    }

    // Sequential application of the identical ops.
    for (const auto& op : batch.ops()) {
      if (op.kind == BatchOp::Kind::kAddEdge) sequential.add_edge(op.u, op.v);
      else sequential.remove_edge(op.u, op.v);
    }
    (void)apply_batch(batched, batch);

    batched.verify();
    ASSERT_TRUE(sequential.graph() == batched.graph());
    for (const NodeId v : sequential.graph().nodes())
      ASSERT_EQ(sequential.in_mis(v), batched.in_mis(v)) << "seed " << seed;
  }
}

TEST(Batch, DeletionsInsideBatch) {
  CascadeEngine engine(11);
  std::vector<NodeId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(engine.add_node());
  for (int i = 0; i + 1 < 10; ++i) engine.add_edge(ids[i], ids[i + 1]);

  // Delete two nodes and rewire around them in one shot.
  Batch batch;
  batch.remove_node(ids[3]);
  batch.remove_node(ids[7]);
  batch.add_edge(ids[2], ids[4]);
  batch.add_edge(ids[6], ids[8]);
  batch.add_node({ids[0], ids[9]});
  const auto result = apply_batch(engine, batch);
  engine.verify();
  EXPECT_FALSE(engine.graph().has_node(ids[3]));
  EXPECT_TRUE(engine.graph().has_edge(ids[2], ids[4]));
  EXPECT_EQ(result.new_nodes.size(), 1U);
  EXPECT_TRUE(dmis::graph::is_maximal_independent_set(engine.graph(),
                                                      engine.mis_set()));
}

TEST(Batch, SeedDeletedLaterInBatchIsSkipped) {
  CascadeEngine engine(13);
  const NodeId a = engine.add_node();
  const NodeId b = engine.add_node();
  const NodeId c = engine.add_node();
  engine.add_edge(a, b);
  // The edge toggle seeds one endpoint; that endpoint then disappears.
  Batch batch;
  batch.remove_edge(a, b);
  batch.remove_node(b);
  const auto result = apply_batch(engine, batch);
  engine.verify();
  EXPECT_TRUE(engine.in_mis(a));
  EXPECT_TRUE(engine.in_mis(c));
  EXPECT_FALSE(engine.graph().has_node(b));
  (void)result;
}

TEST(Batch, MatchesOracleUnderFuzz) {
  dmis::util::Rng rng(17);
  CascadeEngine engine(99);
  std::vector<NodeId> live;
  for (int i = 0; i < 25; ++i) live.push_back(engine.add_node());
  Batch batch;
  for (int round = 0; round < 40; ++round) {
    batch.clear();
    dmis::graph::DynamicGraph mirror = engine.graph();
    const int k = 1 + static_cast<int>(rng.below(6));
    for (int i = 0; i < k; ++i) {
      const double roll = rng.real01();
      if (roll < 0.4) {
        const auto u = live[rng.below(live.size())];
        const auto v = live[rng.below(live.size())];
        if (u != v && mirror.has_node(u) && mirror.has_node(v) &&
            !mirror.has_edge(u, v)) {
          mirror.add_edge(u, v);
          batch.add_edge(u, v);
        }
      } else if (roll < 0.7) {
        const auto edges = mirror.edges();
        if (!edges.empty()) {
          const auto& [u, v] = edges[rng.below(edges.size())];
          mirror.remove_edge(u, v);
          batch.remove_edge(u, v);
        }
      } else if (roll < 0.85 && live.size() > 5) {
        const std::size_t index = rng.below(live.size());
        if (mirror.has_node(live[index])) {
          mirror.remove_node(live[index]);
          batch.remove_node(live[index]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
        }
      } else {
        batch.add_node({live[rng.below(live.size())]});
      }
    }
    const auto result = apply_batch(engine, batch);
    live.insert(live.end(), result.new_nodes.begin(), result.new_nodes.end());
    engine.verify();
    EXPECT_TRUE(dmis::graph::is_maximal_independent_set(engine.graph(),
                                                        engine.mis_set()));
  }
}

TEST(Batch, CorrelatedBatchCheaperThanSequential) {
  // Insert a hub and all its spokes at once: sequential application pays
  // for intermediate configurations the batch never materializes. Compare
  // total adjustments over many seeds.
  dmis::util::OnlineStats sequential_cost;
  dmis::util::OnlineStats batch_cost;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    CascadeEngine seq(seed);
    for (int i = 0; i < 12; ++i) (void)seq.add_node();
    std::uint64_t seq_total = 0;
    const NodeId hub = seq.add_node();
    seq_total += seq.last_report().adjustments;
    for (NodeId v = 0; v < 12; ++v) {
      seq.add_edge(hub, v);
      seq_total += seq.last_report().adjustments;
    }

    CascadeEngine bat(seed);
    for (int i = 0; i < 12; ++i) (void)bat.add_node();
    std::vector<NodeId> spokes;
    for (NodeId v = 0; v < 12; ++v) spokes.push_back(v);
    Batch hub_batch;
    hub_batch.add_node(spokes);
    const auto result = apply_batch(bat, hub_batch);

    sequential_cost.add(static_cast<double>(seq_total));
    batch_cost.add(static_cast<double>(result.report.adjustments));
    for (const NodeId v : seq.graph().nodes())
      ASSERT_EQ(seq.in_mis(v), bat.in_mis(v));
  }
  EXPECT_LE(batch_cost.mean(), sequential_cost.mean());
}

struct StreamTotals {
  std::uint64_t ops = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t adjustments = 0;
};

/// A fixed seeded multi-op stream: ChurnGenerator batches of each size in
/// {2, 3, 7, 16, 64, 256} (about 2048 ops per size) on n=300, average
/// degree 4, seeds 1-6.
StreamTotals churn_batch_totals() {
  StreamTotals totals;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const std::size_t size : {2, 3, 7, 16, 64, 256}) {
      dmis::util::Rng graph_rng(seed);
      const auto g = dmis::graph::random_avg_degree(300, 4.0, graph_rng);
      CascadeEngine engine(g, seed);
      dmis::workload::ChurnGenerator gen(g, {}, seed + 100);
      for (const Batch& batch : dmis::workload::churn_batches(gen, 2048 / size, size)) {
        const BatchResult result = apply_batch(engine, batch);
        totals.ops += batch.size();
        totals.evaluated += result.report.evaluated;
        totals.adjustments += result.report.adjustments;
      }
      engine.verify();
    }
  }
  return totals;
}

TEST(Batch, SeedingRulePinsEvaluatedAndAdjustments) {
  // The batch cascade seeds exactly the nodes each op can break (§3). Any
  // rule that seeds a superset reaches the same adjustments — the final MIS
  // is unique — from more evaluations: seeding the later endpoint of every
  // edge op and every former neighbor of a removed node evaluated 112166
  // nodes (1.52 per op) on this stream.
  constexpr std::uint64_t kCoarseRuleEvaluated = 112166;
  const StreamTotals totals = churn_batch_totals();
  EXPECT_EQ(totals.ops, 73692U);
  EXPECT_EQ(totals.adjustments, 30035U);
  EXPECT_EQ(totals.evaluated, 62446U);  // 0.85 per op
  EXPECT_LT(totals.evaluated, kCoarseRuleEvaluated);
}

}  // namespace
