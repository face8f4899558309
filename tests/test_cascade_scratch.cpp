// Tests for CascadeEngine's reused-scratch machinery: the epoch-stamped
// visited table (including counter rollover), the incremental mis_size()
// counter, and interleaved batch/repair sequences.
#include <gtest/gtest.h>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/greedy_mis.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace {

using namespace dmis::core;

void expect_matches_oracle(const CascadeEngine& engine, std::uint64_t seed) {
  PriorityMap oracle_pri(seed);
  // Replay the engine's (possibly pinned) keys so the oracle uses the same π.
  for (NodeId v = 0; v < engine.graph().id_bound(); ++v)
    if (engine.priorities().is_assigned(v))
      oracle_pri.set_key(v, engine.priorities().key(v));
  PriorityMap& pri = oracle_pri;
  const auto oracle = greedy_mis(engine.graph(), pri);
  engine.graph().for_each_node(
      [&](NodeId v) { EXPECT_EQ(engine.in_mis(v), oracle[v] != 0) << "node " << v; });
}

TEST(CascadeScratch, EpochAdvancesPerCascade) {
  CascadeEngine engine(3);
  const std::uint32_t start = engine.debug_epoch();
  const NodeId a = engine.add_node();
  const NodeId b = engine.add_node();
  EXPECT_GT(engine.debug_epoch(), start);  // each add_node runs a cascade
  const std::uint32_t before = engine.debug_epoch();
  engine.add_edge(a, b);  // may or may not cascade, but never reuses a stamp
  EXPECT_GE(engine.debug_epoch(), before);
}

TEST(CascadeScratch, EpochRolloverIsSafe) {
  dmis::util::Rng rng(31);
  const auto g = dmis::graph::erdos_renyi(60, 0.08, rng);
  CascadeEngine engine(g, 17);

  // Park the counter right below 2^32 − 1 so the next few cascades cross
  // the rollover boundary.
  engine.debug_set_epoch(~static_cast<std::uint32_t>(0) - 3);
  std::vector<NodeId> live = engine.graph().nodes();
  int updates = 0;
  for (int step = 0; step < 200; ++step) {
    const NodeId u = live[rng.below(live.size())];
    const NodeId v = live[rng.below(live.size())];
    if (u == v) continue;
    if (engine.graph().has_edge(u, v)) engine.remove_edge(u, v);
    else engine.add_edge(u, v);
    ++updates;
    engine.verify();
  }
  ASSERT_GT(updates, 50);
  EXPECT_LT(engine.debug_epoch(), 200U) << "counter must restart after rollover";
  expect_matches_oracle(engine, 17);
}

TEST(CascadeScratch, MisSizeCounterTracksSetExactly) {
  CascadeEngine engine(7);
  dmis::util::Rng rng(5);
  std::vector<NodeId> live;
  for (int i = 0; i < 50; ++i) live.push_back(engine.add_node());
  for (int step = 0; step < 2'000; ++step) {
    const double roll = rng.real01();
    if (roll < 0.45) {
      const NodeId u = live[rng.below(live.size())];
      const NodeId v = live[rng.below(live.size())];
      if (u == v || engine.graph().has_edge(u, v)) continue;
      engine.add_edge(u, v);
    } else if (roll < 0.9) {
      const auto edges = engine.graph().edges();
      if (edges.empty()) continue;
      const auto& [u, v] = edges[rng.below(edges.size())];
      engine.remove_edge(u, v);
    } else if (roll < 0.95) {
      live.push_back(engine.add_node({live[rng.below(live.size())]}));
    } else if (live.size() > 2) {
      const std::size_t idx = rng.below(live.size());
      engine.remove_node(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    ASSERT_EQ(engine.mis_size(), engine.mis_set().size());
  }
  engine.verify();
}

TEST(CascadeScratch, InterleavedBatchAndRepairSequences) {
  dmis::util::Rng rng(13);
  CascadeEngine engine(dmis::graph::erdos_renyi(40, 0.1, rng), 23);

  // Alternate edge-toggle storms + manual repair with normal single-change
  // updates and mixed apply_batch calls; after every round the structure
  // must equal the from-scratch greedy MIS (history independence).
  std::vector<NodeId> live = engine.graph().nodes();
  for (int round = 0; round < 60; ++round) {
    const int mode = round % 3;
    if (mode == 0) {
      // Storm phase: a handful of toggles as one batch, then a repair from
      // their later endpoints, which must find nothing left to fix.
      dmis::graph::DynamicGraph mirror = engine.graph();  // the in-batch graph
      Batch toggles;
      std::vector<NodeId> seeds;
      for (int k = 0; k < 4; ++k) {
        const NodeId u = live[rng.below(live.size())];
        const NodeId v = live[rng.below(live.size())];
        if (u == v) continue;
        if (mirror.has_edge(u, v)) {
          mirror.remove_edge(u, v);
          toggles.remove_edge(u, v);
        } else {
          mirror.add_edge(u, v);
          toggles.add_edge(u, v);
        }
        seeds.push_back(engine.priorities().before(u, v) ? v : u);
      }
      (void)apply_batch(engine, toggles);
      EXPECT_EQ(engine.repair(seeds).adjustments, 0U);
    } else if (mode == 1) {
      // Batch phase.
      Batch ops;
      for (int k = 0; k < 3; ++k) {
        const NodeId u = live[rng.below(live.size())];
        const NodeId v = live[rng.below(live.size())];
        if (u == v) continue;
        if (engine.graph().has_edge(u, v)) ops.remove_edge(u, v);
        else ops.add_edge(u, v);
      }
      ops.add_node({live[rng.below(live.size())]});
      const BatchResult res = apply_batch(engine, ops);
      for (const NodeId fresh : res.new_nodes) live.push_back(fresh);
    } else {
      // Normal single-change phase.
      const NodeId u = live[rng.below(live.size())];
      const NodeId v = live[rng.below(live.size())];
      if (u != v) {
        if (engine.graph().has_edge(u, v)) engine.remove_edge(u, v);
        else engine.add_edge(u, v);
      }
    }
    engine.verify();
    expect_matches_oracle(engine, 23);
    ASSERT_EQ(engine.mis_size(), engine.mis_set().size());
  }
}

TEST(CascadeScratch, RepairSeedsBufferIsCallerOwned) {
  // repair() copies the caller's seeds; mutating or reusing the caller's
  // vector afterwards must not affect the engine.
  CascadeEngine engine(1);
  const NodeId a = engine.add_node();
  const NodeId b = engine.add_node({a});
  std::vector<NodeId> seeds = {a, b};
  engine.repair(seeds);
  seeds.clear();
  seeds.push_back(a);
  engine.repair(seeds);
  engine.verify();
}

}  // namespace
