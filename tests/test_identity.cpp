// Engine identity (core/identity.hpp): fingerprint and state_diff must each
// catch a difference in any one component on its own, and must agree
// across the forms one state can take — a live engine and its borrowed and
// materialized warm starts.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/engine_snapshot.hpp"
#include "core/identity.hpp"
#include "graph/snapshot.hpp"
#include "support.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"

namespace {

using namespace dmis;
using graph::NodeId;

constexpr std::uint64_t kPrioritySeed = 7;

/// A churned engine: dead ids, removed edges, keys drawn for every id.
core::CascadeEngine live_engine() {
  core::CascadeEngine engine(kPrioritySeed);
  for (const core::Batch& b : test::make_stream(31, 1500, 8))
    (void)core::apply_batch(engine, b);
  return engine;
}

/// `changed` differs from `base`: fingerprints differ, and state_diff names
/// `component` first.
void expect_caught(const core::CascadeEngine& changed, const core::CascadeEngine& base,
                   const std::string& component) {
  EXPECT_NE(core::fingerprint(changed), core::fingerprint(base));
  const std::string diff = core::state_diff(changed, base);
  EXPECT_EQ(diff.rfind(component, 0), 0U) << diff;
}

TEST(Identity, CatchesAGraphOnlyDifference) {
  // An edge between two non-members: removing it seeds nothing (§3), so
  // keys, membership, |MIS| and the RNG all stay equal.
  const core::CascadeEngine base = live_engine();
  core::CascadeEngine changed = base;
  for (const auto& [u, v] : base.graph().edges())
    if (!base.in_mis(u) && !base.in_mis(v)) {
      EXPECT_EQ(changed.remove_edge(u, v).adjustments, 0U);
      break;
    }
  EXPECT_TRUE(changed.membership() == base.membership());
  expect_caught(changed, base, "graph differs");
}

TEST(Identity, CatchesAKeysOnlyDifference) {
  // A dead id's key: no node reads it, so only the key array differs.
  const core::CascadeEngine base = live_engine();
  NodeId dead = 0;
  while (dead < base.graph().id_bound() && base.graph().has_node(dead)) ++dead;
  ASSERT_LT(dead, base.graph().id_bound());
  core::CascadeEngine changed = base;
  changed.priorities().set_key(dead, base.priorities().key(dead) ^ 1);
  expect_caught(changed, base, "priority keys differ");
}

TEST(Identity, CatchesAnRngOnlyDifference) {
  const core::CascadeEngine base = live_engine();
  util::Rng::State state = base.priorities().rng_state();
  state[0] ^= 1;
  core::CascadeEngine changed = base;
  changed.priorities().restore_rng_state(state);
  expect_caught(changed, base, "priority RNG state differs");
}

TEST(Identity, WarmStartsOfOneCheckpointEqualTheLiveEngine) {
  core::CascadeEngine live = live_engine();
  test::TempFile file("checkpoint.snap");
  std::string error;
  ASSERT_TRUE(core::save_snapshot(live, file.path, &error)) << error;

  graph::Snapshot full;
  ASSERT_TRUE(full.open(file.path, &error)) << error;
  core::CascadeEngine materialized(graph::DynamicGraph::load(full), full, kPrioritySeed);
  auto shallow = std::make_shared<graph::Snapshot>();
  ASSERT_TRUE(shallow->open(file.path, &error, /*force_read=*/false,
                            graph::SnapshotValidation::kShallow))
      << error;
  core::CascadeEngine borrowed(graph::DynamicGraph::borrow(shallow), *shallow,
                               kPrioritySeed);
  ASSERT_TRUE(borrowed.graph().borrowed());

  const auto expect_all_equal = [&](const std::string& where) {
    EXPECT_EQ(core::state_diff(materialized, live), "") << where;
    EXPECT_EQ(core::state_diff(borrowed, live), "") << where;
    EXPECT_EQ(core::fingerprint(materialized), core::fingerprint(live)) << where;
    EXPECT_EQ(core::fingerprint(borrowed), core::fingerprint(live)) << where;
  };
  expect_all_equal("at the checkpoint");
  // The borrowed overlay takes the writes of continued churn.
  for (const core::Batch& b : workload::slice(test::make_stream(31, 2500, 8), 1500)) {
    (void)core::apply_batch(live, b);
    (void)core::apply_batch(materialized, b);
    (void)core::apply_batch(borrowed, b);
  }
  expect_all_equal("after continued churn");
}

}  // namespace
