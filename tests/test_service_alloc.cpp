// Extends the allocation discipline of tests/test_update_alloc.cpp to the
// crash-safe service ingest path: in steady state (warm engine capacities,
// warm WAL serialization buffer, no segment rotation, no checkpoints) a
// MisService::apply must perform zero heap allocations end to end — batch
// reuse, WAL record serialization + write + fsync, engine repair, and
// result bookkeeping included.
//
// Same containment trick as test_update_alloc.cpp: this binary replaces
// global operator new/delete and counts; the measured loop uses no gtest
// macros and no containers of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/batch.hpp"
#include "service/service.hpp"
#include "support.hpp"
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

using test::TempDir;

/// Apply `ops` single-op edge-toggle batches through the service, counting
/// the heap allocations of the whole ingest loop (batch build + WAL append
/// + fsync + engine repair). Returns ~0 on any apply failure.
std::uint64_t toggles(service::MisService& service, core::Batch& batch, NodeId n,
                      std::uint64_t ops, util::Rng& rng, std::string& error) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    batch.clear();
    if (service.engine().graph().has_edge(u, v)) batch.remove_edge(u, v);
    else batch.add_edge(u, v);
    if (!service.apply(batch, &error)) return ~static_cast<std::uint64_t>(0);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(ServiceAlloc, SteadyStateIngestIsAllocationFree) {
  const NodeId n = 64;
  TempDir dir("steady");
  service::ServiceConfig config;
  config.dir = dir.path;
  config.priority_seed = 7;
  // Steady state by construction: the segment never fills mid-measurement
  // and checkpoints only happen when asked.
  config.segment_bytes = 1ULL << 30;
  config.checkpoint_interval_ops = 0;
  std::string error;
  auto service = service::MisService::open(config, &error);
  ASSERT_TRUE(service.has_value()) << error;

  // Seed the id space: n isolated nodes, then toggles only ever reference
  // existing ids, so no apply grows the node tables past warm-up sizes.
  core::Batch batch;
  for (NodeId i = 0; i < n; ++i) batch.add_node();
  ASSERT_TRUE(service->apply(batch, &error)) << error;

  // Deterministic warm-up to the absolute maximum every capacity can ever
  // need at this n: drive the graph to complete, then back to empty. After
  // this no toggle workload can out-grow the edge table, an adjacency
  // list, or the cascade scratch (the engine-only test gets the same
  // guarantee via reserve_edges; the graph is private here).
  for (const bool add : {true, false}) {
    batch.clear();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (add) batch.add_edge(u, v);
        else batch.remove_edge(u, v);
        if (batch.size() >= 128) {
          ASSERT_TRUE(service->apply(batch, &error)) << error;
          batch.clear();
        }
      }
    }
    ASSERT_TRUE(service->apply(batch, &error)) << error;
  }

  util::Rng rng(11);
  // Short random warm-up for the remaining pattern-dependent scratch
  // (visited stamps, changed buffer, WAL record buffer at 1-op size).
  (void)toggles(*service, batch, n, 20'000, rng, error);

  const std::uint64_t allocs = toggles(*service, batch, n, 20'000, rng, error);
  EXPECT_EQ(allocs, 0U) << "steady-state service ingest must not allocate"
                        << (error.empty() ? "" : ("; last error: " + error));
  service->engine().verify();
  ASSERT_TRUE(service->close(&error)) << error;
}

TEST(ServiceAlloc, ColdServiceEventuallyStopsAllocating) {
  // From a cold open the service may allocate (vector growth, rehashes,
  // first WAL buffer sizing) but the rate must hit exactly zero.
  const NodeId n = 32;
  TempDir dir("cold");
  service::ServiceConfig config;
  config.dir = dir.path;
  config.priority_seed = 21;
  config.segment_bytes = 1ULL << 30;
  // Group fsyncs so the window loop measures allocation convergence, not
  // disk latency; sync() allocates nothing under any policy.
  config.fsync = service::FsyncPolicy::kInterval;
  config.fsync_interval_records = 256;
  std::string error;
  auto service = service::MisService::open(config, &error);
  ASSERT_TRUE(service.has_value()) << error;
  core::Batch batch;
  for (NodeId i = 0; i < n; ++i) batch.add_node();
  ASSERT_TRUE(service->apply(batch, &error)) << error;

  util::Rng rng(17);
  std::uint64_t last = ~0ULL;
  bool reached_zero = false;
  for (int window = 0; window < 12; ++window) {
    const std::uint64_t allocs = toggles(*service, batch, n, 10'000, rng, error);
    if (allocs == 0) reached_zero = true;
    last = allocs;
  }
  EXPECT_TRUE(reached_zero);
  EXPECT_EQ(last, 0U) << (error.empty() ? "" : error);
  service->engine().verify();
  ASSERT_TRUE(service->close(&error)) << error;
}

}  // namespace
