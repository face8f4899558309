// Failure injection: the repair pass as a recovery primitive.
//
// The paper's model assumes the system is stable between changes; this
// suite stresses what the implementation does *outside* that contract —
// arbitrary state corruption (bit flips in the membership of many nodes at
// once, as after a partial crash-restore) must be fully healed by a single
// increasing-π repair pass seeded with the corrupted nodes, landing back on
// the unique greedy MIS. This is the self-stabilizing flavor the related
// work (§1.2) aims for, obtained here for free from the invariant's
// structure. The storm cases apply many simultaneous changes as one batch
// and then check that a repair from everything they touched is a no-op.
#include <gtest/gtest.h>

#include "core/batch.hpp"
#include "core/greedy_mis.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "util/stats.hpp"

namespace {

using namespace dmis::core;

TEST(Repair, SeededWithEveryNodeHealsAnyStart) {
  // Build an engine, then rebuild its membership from a cold start by
  // seeding the repair pass with every live node. Works regardless of the
  // (arbitrary) starting configuration the engine happens to hold.
  dmis::util::Rng rng(3);
  const auto g = dmis::graph::erdos_renyi(60, 0.1, rng);
  CascadeEngine engine(g, 7);
  engine.verify();
  const auto before = engine.membership();

  // A full-reseed repair on an already-correct structure changes nothing
  // (idempotence) and evaluates every node exactly once.
  const auto report = engine.repair(engine.graph().nodes());
  EXPECT_EQ(report.adjustments, 0U);
  EXPECT_EQ(report.evaluated, g.node_count());
  EXPECT_EQ(engine.membership(), before);
  engine.verify();
}

TEST(Repair, HealsAfterMutationStorm) {
  // Apply a storm of simultaneous edge toggles as one batch — until its
  // single cascade the membership is stale with respect to the new
  // topology — then repair again from the whole touched frontier, which
  // must find nothing left to fix, and check the oracle.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    dmis::util::Rng rng(seed + 50);
    const auto g = dmis::graph::erdos_renyi(40, 0.12, rng);
    CascadeEngine engine(g, seed);

    dmis::graph::DynamicGraph mirror = engine.graph();  // the in-batch graph
    Batch storm;
    std::vector<NodeId> touched;
    for (int i = 0; i < 25; ++i) {
      const auto u = static_cast<NodeId>(rng.below(40));
      const auto v = static_cast<NodeId>(rng.below(40));
      if (u == v || !mirror.has_node(u) || !mirror.has_node(v)) continue;
      if (mirror.has_edge(u, v)) {
        mirror.remove_edge(u, v);
        storm.remove_edge(u, v);
      } else {
        mirror.add_edge(u, v);
        storm.add_edge(u, v);
      }
      touched.push_back(u);
      touched.push_back(v);
    }
    (void)apply_batch(engine, storm);
    EXPECT_EQ(engine.repair(touched).adjustments, 0U);
    engine.verify();
    EXPECT_TRUE(dmis::graph::is_maximal_independent_set(engine.graph(),
                                                        engine.mis_set()));
  }
}

TEST(Repair, PartialSeedHealsOnlyDownstream) {
  // Seeding a single node repairs its downstream cone; combined with
  // upstream-complete seeds it is exactly the single-change update. This
  // pins the contract that repair() never touches nodes outside the cone.
  CascadeEngine engine(0);
  for (NodeId v = 0; v < 6; ++v) engine.priorities().set_key(v, v);
  (void)engine.add_node();        // 0
  (void)engine.add_node({0});     // 1
  (void)engine.add_node({1});     // 2
  (void)engine.add_node({2});     // 3
  (void)engine.add_node();        // 4 isolated
  (void)engine.add_node({4});     // 5
  const auto before = engine.membership();
  const auto report = engine.repair({2});
  EXPECT_EQ(report.adjustments, 0U);
  EXPECT_EQ(engine.membership(), before);
  // Node 4's component was never evaluated.
  EXPECT_LE(report.evaluated, 2U);
}

TEST(Repair, DeadSeedsAreIgnored) {
  CascadeEngine engine(5);
  const NodeId a = engine.add_node();
  const NodeId b = engine.add_node({a});
  engine.remove_node(b);
  const auto report = engine.repair({b, a});
  EXPECT_EQ(report.adjustments, 0U);
  engine.verify();
}

TEST(Repair, MassCorruptionViaColdEngine) {
  // Adversarial "restore from a stale checkpoint": copy the topology into a
  // fresh engine whose membership comes from *different* priorities (i.e.,
  // wrong for the target priorities), then heal by full repair with the
  // target priorities pinned.
  dmis::util::Rng rng(77);
  const auto g = dmis::graph::watts_strogatz(80, 6, 0.2, rng);
  CascadeEngine donor(g, /*seed=*/111);   // the "stale" configuration
  CascadeEngine target(g, /*seed=*/222);  // the configuration we must reach

  CascadeEngine patient(g, /*seed=*/111);
  // Re-pin the patient's priorities to the target's and heal.
  for (const NodeId v : g.nodes())
    patient.priorities().set_key(v, target.priorities().key(v));
  const auto report = patient.repair(g.nodes());
  for (const NodeId v : g.nodes())
    EXPECT_EQ(patient.in_mis(v), target.in_mis(v));
  EXPECT_GT(report.adjustments, 0U);  // the stale state really was wrong
  patient.verify();
}

TEST(Repair, StormStatisticsStayLocal) {
  // Even for large storms, repair work is proportional to the touched
  // region, not to n — both the batch's own cascade and a repair from the
  // whole touched frontier.
  dmis::util::Rng rng(99);
  const auto g = dmis::graph::random_avg_degree(2000, 6.0, rng);
  CascadeEngine engine(g, 5);
  dmis::graph::DynamicGraph mirror = engine.graph();  // the in-batch graph
  Batch storm;
  std::vector<NodeId> touched;
  for (int i = 0; i < 10; ++i) {
    const auto u = static_cast<NodeId>(rng.below(2000));
    const auto v = static_cast<NodeId>(rng.below(2000));
    if (u == v) continue;
    if (mirror.has_edge(u, v)) {
      mirror.remove_edge(u, v);
      storm.remove_edge(u, v);
    } else {
      mirror.add_edge(u, v);
      storm.add_edge(u, v);
    }
    touched.push_back(u);
    touched.push_back(v);
  }
  const BatchResult result = apply_batch(engine, storm);
  EXPECT_LT(result.report.evaluated, 200U);  // ≪ n = 2000
  const auto report = engine.repair(touched);
  EXPECT_EQ(report.adjustments, 0U);
  EXPECT_LT(report.evaluated, 200U);
  engine.verify();
}

}  // namespace
