// Enforces the allocation-free update hot path: in steady state (warm
// capacities, no node growth) a CascadeEngine update must perform zero heap
// allocations end to end — graph mutation, cascade scratch, and report
// bookkeeping all reuse engine-owned buffers.
//
// Allocations are counted by replacing the global operator new/delete for
// this test binary (each test file is its own executable, so the override is
// contained). The measured sections use no gtest macros and no standard
// containers of their own; anything they allocate is the engine's fault.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>

#include "core/cascade_engine.hpp"
#include "core/engine_snapshot.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dmis;
using graph::NodeId;

/// Toggle `ops` pseudo-random edges on the engine, returning the number of
/// heap allocations the loop performed.
std::uint64_t toggles(core::CascadeEngine& engine, NodeId n, std::uint64_t ops,
                      util::Rng& rng) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    if (engine.graph().has_edge(u, v)) engine.remove_edge(u, v);
    else engine.add_edge(u, v);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(UpdateAlloc, SteadyStateChurnIsAllocationFree) {
  const NodeId n = 64;
  util::Rng graph_rng(5);
  auto g = graph::random_avg_degree(n, 6.0, graph_rng);
  // Reserve the edge table past every key this seeded toggle sequence can
  // produce, so the FlatSet never rehashes mid-measurement.
  g.reserve_edges(static_cast<std::size_t>(n) * n);
  core::CascadeEngine engine(g, 7);

  util::Rng rng(11);
  // Warm-up: grows adjacency capacities, the cascade heap, the changed
  // buffer and the visited table to their steady-state sizes. Long enough
  // that every per-node capacity has seen its steady-state maximum.
  (void)toggles(engine, n, 300'000, rng);

  const std::uint64_t allocs = toggles(engine, n, 50'000, rng);
  EXPECT_EQ(allocs, 0U) << "steady-state updates must not allocate";
  engine.verify();
}

TEST(UpdateAlloc, RepeatedRepairIsAllocationFree) {
  const NodeId n = 128;
  util::Rng graph_rng(3);
  core::CascadeEngine engine(graph::random_avg_degree(n, 8.0, graph_rng), 13);

  std::vector<graph::NodeId> seeds = {1, 5, 9, 40, 77, 101};
  (void)engine.repair(seeds);  // warm the scratch buffers
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) (void)engine.repair(seeds);
  const std::uint64_t allocs = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0U) << "repair() with warm buffers must not allocate";
  engine.verify();
}

TEST(UpdateAlloc, BorrowedEngineChurnIsAllocationFreeAfterOverlayWarmUp) {
  // Borrowed mode adds the copy-on-write overlay to the hot path: first
  // touches migrate adjacency records to the heap pool and grow the edge
  // deltas, but once the toggle workload's working set has been touched the
  // overlay is at capacity and steady-state churn must allocate exactly as
  // much as materialized mode — nothing.
  const graph::NodeId n = 64;
  util::Rng graph_rng(5);
  auto g = graph::random_avg_degree(n, 6.0, graph_rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "dmis_alloc_borrow.snap").string();
  core::CascadeEngine source(g, 7);
  ASSERT_TRUE(core::save_snapshot(source, path));

  auto snap = std::make_shared<graph::Snapshot>();
  ASSERT_TRUE(snap->open(path));
  core::CascadeEngine engine(graph::DynamicGraph::borrow(snap), *snap, 7);
  ASSERT_TRUE(engine.graph().borrowed());

  util::Rng rng(11);
  // Warm-up: every node the toggle sequence can touch gets COW-migrated and
  // both edge deltas (inserts and removed-base keys) reach their
  // steady-state capacities, alongside the usual engine scratch growth.
  (void)toggles(engine, n, 300'000, rng);

  const std::uint64_t allocs = toggles(engine, n, 50'000, rng);
  EXPECT_EQ(allocs, 0U) << "borrowed steady-state updates must not allocate";
  engine.verify();
  std::filesystem::remove(path);
}

TEST(UpdateAlloc, ColdEngineEventuallyStopsAllocating) {
  // From a cold start the engine may allocate (vector growth, rehashes) but
  // the allocation rate must go to zero: successive windows of the same
  // toggle workload allocate monotonically less, hitting exactly zero.
  const NodeId n = 48;
  core::CascadeEngine engine(graph::DynamicGraph(n), 21);
  util::Rng rng(17);
  std::uint64_t last = ~0ULL;
  bool reached_zero = false;
  for (int window = 0; window < 12; ++window) {
    const std::uint64_t allocs = toggles(engine, n, 20'000, rng);
    if (allocs == 0) reached_zero = true;
    last = allocs;
  }
  EXPECT_TRUE(reached_zero);
  EXPECT_EQ(last, 0U);
  engine.verify();
}

}  // namespace
