// bench_oom — demonstrates beyond-RAM operation: with the process heap
// capped below the graph's materialized footprint (setrlimit RLIMIT_DATA),
// a materialized DynamicGraph::load MUST fail with bad_alloc while the
// borrowed path — shallow Snapshot::open + DynamicGraph::borrow — opens,
// answers a query sweep, and absorbs a churn workload, all inside the cap.
//
// Why the cap distinguishes the two paths: RLIMIT_DATA (Linux >= 4.7)
// counts brk plus private *writable* anonymous mappings — exactly what the
// heap copies of a materialized load are made of — but NOT the read-only
// MAP_PRIVATE file mapping the borrowed graph reads through. The borrowed
// graph's only heap is its overlay (dirty adjacency pool + its index),
// which is O(touched set), not O(graph).
//
// Protocol (single process, so both attempts share one machine state):
//   1. uncapped: build G(n, m) at --deg, save the snapshot, precompute the
//      churn/query workload, then free the build state and malloc_trim;
//   2. cap = VmData + --slack-mb (default 48 MB, far below the snapshot);
//   3. materialized attempt: full open + load under the cap — expected to
//      throw bad_alloc (a cell where it loads means the cap did not bind
//      and the gate in scripts/check_bench.py fails the run);
//   4. borrowed attempt: shallow open + borrow + --query-ops random
//      adjacency probes (pages the mapping in on demand) + --churn-ops
//      edge toggles (copy-on-write overlay growth), still under the cap;
//   5. lift the cap, write JSON (committed as BENCH_oom.json, shape-checked
//      and gated by scripts/check_bench.py).
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_trim
#endif

#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace dmis;
using graph::NodeId;
using Clock = std::chrono::steady_clock;

/// VmData from /proc/self/status, in bytes: brk + private writable
/// mappings — the quantity RLIMIT_DATA caps. 0 if unreadable.
std::uint64_t vm_data_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmData: %llu kB", &kb) == 1) break;
  std::fclose(f);
  return kb * 1024ULL;
}

struct MaterializedRow {
  bool loaded = false;  // gate: must stay false under the cap
  double open_s = 0;    // time to the bad_alloc (or to the load, if it slipped)
  std::string detail;
};

struct BorrowedRow {
  bool loaded = false;  // gate: must be true under the same cap
  double open_s = 0;    // shallow open + borrow + first query
  double query_ops_per_sec = 0;
  double churn_ops_per_sec = 0;
  std::uint64_t resident_bytes = 0;  // snapshot pages faulted in (mincore)
  std::uint64_t mapped_bytes = 0;    // snapshot file size
  std::uint64_t vm_data_bytes = 0;   // heap high-water under the cap
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto n = static_cast<NodeId>(cli.flag_int("n", 1'000'000, "graph nodes"));
  const double deg = cli.flag_double("deg", 6.0, "average degree");
  const auto seed =
      static_cast<std::uint64_t>(cli.flag_int("seed", 42, "graph and workload seed"));
  const auto churn_ops = static_cast<std::uint64_t>(
      cli.flag_int("churn-ops", 20'000, "edge toggles under the cap"));
  const auto query_ops = static_cast<std::uint64_t>(
      cli.flag_int("query-ops", 100'000, "adjacency probes under the cap"));
  const auto slack_mb = static_cast<std::uint64_t>(
      cli.flag_int("slack-mb", 48, "heap cap above the uncapped VmData, in MB"));
  const auto out =
      cli.flag_string("out", "BENCH_oom.json", "machine-readable output path");
  const auto dir = cli.flag_string("dir", std::filesystem::temp_directory_path().string(),
                                   "scratch directory for the snapshot");
  cli.finish();
  if (std::getenv("DMIS_NO_MMAP") != nullptr) {
    // The fallback path buffers the file on heap — under the cap BOTH modes
    // would fail, which proves nothing about the borrowed design.
    std::fprintf(stderr, "bench_oom requires real mmap; unset DMIS_NO_MMAP\n");
    return 2;
  }

  const std::string snap_path =
      (std::filesystem::path(dir) / ("bench_oom_" + std::to_string(n) + ".snap"))
          .string();
  std::string error;

  // Phase 1 — uncapped: build, save, precompute the capped-phase workload
  // (so the capped phase allocates nothing beyond the overlay under test).
  std::uint64_t edge_count = 0;
  std::vector<std::pair<NodeId, NodeId>> churn_edges;
  std::vector<NodeId> query_nodes;
  {
    util::Rng rng(seed);
    graph::DynamicGraph g = graph::random_avg_degree(n, deg, rng);
    edge_count = g.edge_count();
    if (!g.save(snap_path, &error)) {
      std::fprintf(stderr, "snapshot save failed: %s\n", error.c_str());
      return 1;
    }
    churn_edges.reserve(churn_ops);
    g.for_each_edge([&](NodeId u, NodeId v) {
      if (churn_edges.size() < churn_ops) churn_edges.emplace_back(u, v);
    });
    util::Rng qrng(seed + 1);
    query_nodes.reserve(query_ops);
    for (std::uint64_t i = 0; i < query_ops; ++i)
      query_nodes.push_back(static_cast<NodeId>(qrng.next_u64() % n));
  }
#if defined(__GLIBC__)
  malloc_trim(0);  // return freed build-state pages so the cap binds tightly
#endif

  const std::uint64_t snapshot_bytes = std::filesystem::file_size(snap_path);
  const std::uint64_t base_vm = vm_data_bytes();
  const std::uint64_t slack_bytes = slack_mb << 20;
  const std::uint64_t cap_bytes = base_vm + slack_bytes;
  std::printf("heap base=%llu MB  cap=+%llu MB  snapshot=%llu MB (n=%u, m=%llu)\n",
              static_cast<unsigned long long>(base_vm >> 20),
              static_cast<unsigned long long>(slack_mb),
              static_cast<unsigned long long>(snapshot_bytes >> 20), n,
              static_cast<unsigned long long>(edge_count));
  if (slack_bytes >= snapshot_bytes) {
    std::fprintf(stderr,
                 "slack (%llu MB) is not below the snapshot (%llu MB) — the cap "
                 "would prove nothing; raise --n or lower --slack-mb\n",
                 static_cast<unsigned long long>(slack_mb),
                 static_cast<unsigned long long>(snapshot_bytes >> 20));
    return 1;
  }

  // Phase 2 — cap the heap.
  rlimit old_limit{};
  if (getrlimit(RLIMIT_DATA, &old_limit) != 0) {
    std::fprintf(stderr, "getrlimit failed\n");
    return 1;
  }
  rlimit capped = old_limit;
  capped.rlim_cur = cap_bytes;
  if (setrlimit(RLIMIT_DATA, &capped) != 0) {
    std::fprintf(stderr, "setrlimit failed\n");
    return 1;
  }

  // Phase 3 — materialized load under the cap: expected bad_alloc.
  MaterializedRow mat;
  {
    const auto t0 = Clock::now();
    try {
      graph::Snapshot snap;
      if (!snap.open(snap_path, &error)) {
        mat.detail = "open failed: " + error;
      } else {
        graph::DynamicGraph g = graph::DynamicGraph::load(snap);
        mat.loaded = g.edge_count() == edge_count;
        mat.detail = "loaded under the cap (cap did not bind)";
      }
    } catch (const std::bad_alloc&) {
      mat.detail = "bad_alloc";
    }
    mat.open_s = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  std::printf("materialized under cap: %s (%.4fs)\n", mat.detail.c_str(), mat.open_s);

  // Phase 4 — borrowed under the same cap: open, page through queries,
  // absorb churn. All heap growth is overlay.
  BorrowedRow bor;
  bor.mapped_bytes = snapshot_bytes;
  try {
    const auto t0 = Clock::now();
    auto base = std::make_shared<graph::Snapshot>();
    if (!base->open(snap_path, &error, false, graph::SnapshotValidation::kShallow)) {
      std::fprintf(stderr, "shallow open failed under cap: %s\n", error.c_str());
      return 1;
    }
    graph::DynamicGraph g = graph::DynamicGraph::borrow(base);
    std::uint64_t sink = g.degree(0);
    bor.open_s = std::chrono::duration<double>(Clock::now() - t0).count();

    const auto t_q = Clock::now();
    for (const NodeId v : query_nodes) {
      sink += g.degree(v);
      for (const NodeId u : g.neighbors(v)) {
        sink += g.has_edge(v, u) ? 1 : 0;
        break;
      }
    }
    const double q_s = std::chrono::duration<double>(Clock::now() - t_q).count();
    bor.query_ops_per_sec =
        q_s > 0 ? static_cast<double>(query_nodes.size()) / q_s : 0;

    const auto t_c = Clock::now();
    for (const auto& [u, v] : churn_edges) {
      if (!g.remove_edge(u, v) || !g.add_edge(u, v)) {
        std::fprintf(stderr, "borrowed toggle failed under cap\n");
        return 1;
      }
    }
    const double c_s = std::chrono::duration<double>(Clock::now() - t_c).count();
    // 2 graph ops per toggle.
    bor.churn_ops_per_sec =
        c_s > 0 ? static_cast<double>(2 * churn_edges.size()) / c_s : 0;

    bor.loaded = g.edge_count() == edge_count && sink > 0;
    bor.resident_bytes = base->resident_bytes();
    bor.vm_data_bytes = vm_data_bytes();
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "borrowed path hit bad_alloc under the cap — the "
                         "overlay outgrew the slack\n");
    bor.loaded = false;
  }
  std::printf("borrowed under cap: %s  open=%.6fs  query=%.0f ops/s  "
              "churn=%.0f ops/s  resident=%llu MB of %llu MB mapped\n",
              bor.loaded ? "ok" : "FAILED", bor.open_s, bor.query_ops_per_sec,
              bor.churn_ops_per_sec,
              static_cast<unsigned long long>(bor.resident_bytes >> 20),
              static_cast<unsigned long long>(bor.mapped_bytes >> 20));

  // Phase 5 — lift the cap, emit JSON.
  if (setrlimit(RLIMIT_DATA, &old_limit) != 0)
    std::fprintf(stderr, "warning: could not restore RLIMIT_DATA\n");
  std::filesystem::remove(snap_path);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"oom\",\n");
  std::fprintf(f,
               "  \"config\": {\"n\": %u, \"deg\": %.1f, \"seed\": %llu, "
               "\"churn_ops\": %llu, \"query_ops\": %llu, \"slack_bytes\": %llu, "
               "\"cap_bytes\": %llu, \"snapshot_bytes\": %llu, \"edges\": %llu},\n",
               n, deg, static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(churn_ops),
               static_cast<unsigned long long>(query_ops),
               static_cast<unsigned long long>(slack_bytes),
               static_cast<unsigned long long>(cap_bytes),
               static_cast<unsigned long long>(snapshot_bytes),
               static_cast<unsigned long long>(edge_count));
  std::fprintf(f, "  \"results\": [\n");
  std::fprintf(f,
               "    {\"mode\": \"materialized\", \"loaded\": %s, \"open_s\": %.6f, "
               "\"detail\": \"%s\"},\n",
               mat.loaded ? "true" : "false", mat.open_s, mat.detail.c_str());
  std::fprintf(f,
               "    {\"mode\": \"borrowed\", \"loaded\": %s, \"open_s\": %.6f, "
               "\"query_ops_per_sec\": %.0f, \"churn_ops_per_sec\": %.0f, "
               "\"resident_bytes\": %llu, \"mapped_bytes\": %llu, "
               "\"vm_data_bytes\": %llu}\n",
               bor.loaded ? "true" : "false", bor.open_s, bor.query_ops_per_sec,
               bor.churn_ops_per_sec,
               static_cast<unsigned long long>(bor.resident_bytes),
               static_cast<unsigned long long>(bor.mapped_bytes),
               static_cast<unsigned long long>(bor.vm_data_bytes));
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  // The process-level verdict mirrors the check_bench gate so a CI smoke
  // run fails loudly without parsing JSON.
  return (!mat.loaded && bor.loaded) ? 0 : 1;
}
