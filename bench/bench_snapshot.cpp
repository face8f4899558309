// bench_snapshot — quantifies the persistence layer: mmap-load of a binary
// graph snapshot vs. rebuilding the same graph edge by edge from its churn
// trace (the way every bench warmed up before the snapshot format existed).
//
// For each n the harness builds a warm G(n, m) at --deg, writes (a) the
// self-contained binary grow trace and (b) the snapshot, then times
//   rebuild   the repo's own trace→graph path (TraceFile → to_trace →
//             workload::materialize): hash + two adjacency pushes per edge,
//             plus the per-op neighbor vectors the Trace representation
//             carries — this is what every pre-snapshot consumer paid,
//   tuned     a best-case rebuild: allocation-free inline replay of the
//             mapped ops with the edge table pre-reserved (no caller ever
//             ran this — it bounds how much of the speedup is zero-copy
//             format vs. just avoiding Trace overhead),
//   save      DynamicGraph::save (streamed v1 sections + checksum),
//   load      Snapshot::open (mmap + structural validation pass) plus
//             DynamicGraph::load of that v1 file (bulk memcpy + verbatim
//             edge-table adopt).
// Each phase runs --reps times and the minimum is reported (the page cache
// is warm after rep 1 on both sides, so min compares compute, not I/O
// luck). The loaded graph is compared to the original for equality outside
// the timed region. Results append to BENCH_snapshot.json; the acceptance
// bar for the persistence layer is load >= 5x faster than rebuild at
// n = 1e6.
//
// The engine columns quantify the warm start: a version-4 snapshot
// (persisted priority keys + membership, no edge table) is saved from a
// CascadeEngine and then, in the SAME process with cold/warm reps strictly
// interleaved (so machine drift hits both sides equally — the ROADMAP's
// rule for perf claims),
//   engine_cold   Snapshot::open + DynamicGraph::load + the graph
//                 constructor: bulk graph load, fresh priority draws, full
//                 greedy recompute — the engine-ready path every snapshot
//                 consumer paid before engine state was persisted,
//   engine_warm   Snapshot::open + DynamicGraph::load + the snapshot
//                 constructor (kWarm): bulk graph load + bulk
//                 key/membership adoption, zero recompute.
// Both load the v4 file, so both hash its edge set into a fresh table
// (v4 stores none); load_s adopts the v1 file's stored table instead.
// The acceptance bar for the warm start is warm_speedup >= 2 at n = 1e6.
// Outside the timed region the warm engine must pass verify() and equal
// the saved engine (core::state_diff).
//
// The borrowed columns quantify the zero-copy path: per rep, strictly
// interleaved with the materialized load,
//   borrow_open_s     shallow Snapshot::open + DynamicGraph::borrow + the
//                     first real query (degree + adjacency walk + edge
//                     probe, answered off the mapping) — "directory on
//                     disk" to "first answer" with no O(n + m) copy,
//   borrow_first_op_s the first mutation (a churn toggle): copy-on-write
//                     migration of two adjacency records + list edits,
//   borrow_speedup    load_s / borrow_open_s. Acceptance bar: >= 10 at
//                     n = 1e6 (gated by scripts/check_bench.py).
// The borrowed graph is compared to the original outside the timed region.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/cascade_engine.hpp"
#include "core/engine_snapshot.hpp"
#include "core/identity.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace dmis;
using graph::NodeId;
using Clock = std::chrono::steady_clock;

struct Result {
  NodeId n = 0;
  std::uint64_t edges = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t trace_bytes = 0;
  double rebuild_s = 0;        // the repo's trace→graph path (materialize)
  double rebuild_tuned_s = 0;  // best-case inline replay, edge table reserved
  double save_s = 0;
  double open_s = 0;  // Snapshot::open alone (mmap + validation pass)
  double load_s = 0;  // Snapshot::open + DynamicGraph::load
  double speedup_vs_rebuild = 0;
  // Borrowed (zero-copy) columns, measured rep-interleaved with load_s so
  // the ratio compares within one machine state:
  double borrow_open_s = 0;      // shallow open + borrow + first query
  double borrow_first_op_s = 0;  // first mutation (copy-on-write + edits)
  double borrow_speedup = 0;     // load_s / borrow_open_s
  double engine_cold_s = 0;  // open + cold engine start (fresh keys + greedy)
  double engine_warm_s = 0;  // open + warm engine start (persisted state)
  double warm_speedup = 0;   // engine_cold_s / engine_warm_s (interleaved run)
};

template <typename F>
double min_seconds(int reps, F&& f) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    f();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

Result run_size(NodeId n, double deg, std::uint64_t seed, int reps,
                const std::filesystem::path& dir) {
  Result r;
  r.n = n;
  util::Rng rng(seed);
  const graph::DynamicGraph g = graph::random_avg_degree(n, deg, rng);
  r.edges = g.edge_count();

  const std::string trace_path = (dir / ("bench_" + std::to_string(n) + ".trc")).string();
  const std::string snap_path = (dir / ("bench_" + std::to_string(n) + ".snap")).string();
  std::string error;
  const workload::Trace grow = workload::grow_trace(g);
  if (!workload::TraceFile::save(trace_path, grow, &error)) {
    std::fprintf(stderr, "trace save failed: %s\n", error.c_str());
    std::exit(1);
  }

  // Headline comparator: the path every pre-snapshot consumer of a trace
  // actually ran.
  graph::DynamicGraph rebuilt;
  r.rebuild_s = min_seconds(reps, [&] {
    workload::TraceFile tf;
    if (!tf.open(trace_path, &error)) {
      std::fprintf(stderr, "trace open failed: %s\n", error.c_str());
      std::exit(1);
    }
    rebuilt = workload::materialize(tf.to_trace());
  });

  // Best-case comparator: zero-allocation replay straight off the mapping
  // with the edge table pre-sized. Strictly faster than any rebuild the
  // codebase ever shipped; the snapshot still has to beat it on bulk copies
  // alone.
  graph::DynamicGraph rebuilt_tuned;
  r.rebuild_tuned_s = min_seconds(reps, [&] {
    workload::TraceFile tf;
    if (!tf.open(trace_path, &error)) {
      std::fprintf(stderr, "trace open failed: %s\n", error.c_str());
      std::exit(1);
    }
    graph::DynamicGraph built;
    built.reserve_edges(r.edges);
    tf.replay(built);
    rebuilt_tuned = std::move(built);
  });

  r.save_s = min_seconds(reps, [&] {
    if (!g.save(snap_path, &error)) {
      std::fprintf(stderr, "snapshot save failed: %s\n", error.c_str());
      std::exit(1);
    }
  });

  r.open_s = min_seconds(reps, [&] {
    graph::Snapshot snap;
    if (!snap.open(snap_path, &error)) {
      std::fprintf(stderr, "snapshot open failed: %s\n", error.c_str());
      std::exit(1);
    }
  });

  // Materialized load vs. borrowed open, reps strictly interleaved (A then
  // B per rep) so the >= 10x open-to-first-query claim compares the two
  // paths under identical machine state — the ROADMAP's rule for ratios.
  graph::DynamicGraph loaded;
  std::shared_ptr<graph::Snapshot> last_borrow_base;
  graph::DynamicGraph borrowed;
  std::uint64_t borrow_sink = 0;
  // A probe vertex with neighbors: the borrowed "first query" walks its
  // adjacency off the mapping.
  NodeId probe = n / 2;
  while (probe < n && g.degree(probe) == 0) ++probe;
  if (probe >= n) probe = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t_load = Clock::now();
    {
      graph::Snapshot snap;
      if (!snap.open(snap_path, &error)) {
        std::fprintf(stderr, "snapshot open failed: %s\n", error.c_str());
        std::exit(1);
      }
      loaded = graph::DynamicGraph::load(snap);
    }
    const double load_s = std::chrono::duration<double>(Clock::now() - t_load).count();
    if (rep == 0 || load_s < r.load_s) r.load_s = load_s;

    // Borrowed open-to-first-query: shallow open (O(1) header + shape
    // checks; the lazy per-node guard covers what the skipped linear pass
    // would have), borrow, then answer a real adjacency + edge query.
    const auto t_borrow = Clock::now();
    auto base = std::make_shared<graph::Snapshot>();
    if (!base->open(snap_path, &error, false, graph::SnapshotValidation::kShallow)) {
      std::fprintf(stderr, "shallow snapshot open failed: %s\n", error.c_str());
      std::exit(1);
    }
    graph::DynamicGraph b = graph::DynamicGraph::borrow(base);
    borrow_sink += b.degree(probe);
    for (const NodeId u : b.neighbors(probe)) {
      borrow_sink += b.has_edge(probe, u) ? 1 : 0;
      break;
    }
    const double borrow_open =
        std::chrono::duration<double>(Clock::now() - t_borrow).count();
    if (rep == 0 || borrow_open < r.borrow_open_s) r.borrow_open_s = borrow_open;

    // First mutation: a churn toggle on the probe vertex — copy-on-write
    // migration of two adjacency records, then edits to both lists.
    const NodeId nbr = b.neighbors(probe)[0];
    const auto t_op = Clock::now();
    if (!b.remove_edge(probe, nbr) || !b.add_edge(probe, nbr)) {
      std::fprintf(stderr, "borrowed toggle failed at n=%u\n", n);
      std::exit(1);
    }
    const double first_op = std::chrono::duration<double>(Clock::now() - t_op).count();
    if (rep == 0 || first_op < r.borrow_first_op_s) r.borrow_first_op_s = first_op;
    borrowed = std::move(b);
    last_borrow_base = std::move(base);
  }
  r.speedup_vs_rebuild = r.load_s > 0 ? r.rebuild_s / r.load_s : 0;
  r.borrow_speedup = r.borrow_open_s > 0 ? r.load_s / r.borrow_open_s : 0;
  if (borrow_sink == 0) std::fprintf(stderr, "(borrow probe saw nothing — suspicious)\n");

  // The last rep's borrowed graph (toggle included — it ends where it
  // started) must equal the original, edge for edge.
  if (!(loaded == g) || !(rebuilt == g) || !(rebuilt_tuned == g) || !(borrowed == g)) {
    std::fprintf(stderr, "round-trip mismatch at n=%u\n", n);
    std::exit(1);
  }
  borrowed = graph::DynamicGraph();
  last_borrow_base.reset();
  r.snapshot_bytes = std::filesystem::file_size(snap_path);
  r.trace_bytes = std::filesystem::file_size(trace_path);

  // Warm-vs-cold engine start off a v4 snapshot, reps strictly interleaved
  // (cold then warm per rep) so the two columns share every machine-state
  // swing and their ratio is trustworthy within this one process.
  const std::string engine_path =
      (dir / ("bench_" + std::to_string(n) + "_engine.snap")).string();
  std::size_t sink = 0;  // consumed below so the engines cannot be elided
  {
    const core::CascadeEngine source(g, seed);
    if (!core::save_snapshot(source, engine_path, &error)) {
      std::fprintf(stderr, "engine snapshot save failed: %s\n", error.c_str());
      std::exit(1);
    }
    // Correctness pin outside the timed region: verify() shows the MIS
    // invariant holds under the adopted keys, so by fixpoint uniqueness the
    // warm membership is what a greedy recompute yields; state_diff pins
    // the warm engine to the saved one (graph, keys, membership, RNG).
    graph::Snapshot snap;
    if (!snap.open(engine_path, &error)) {
      std::fprintf(stderr, "engine snapshot open failed: %s\n", error.c_str());
      std::exit(1);
    }
    const core::CascadeEngine warm(graph::DynamicGraph::load(snap), snap, seed,
                                   graph::SnapshotLoad::kWarm);
    warm.verify();
    if (const std::string diff = core::state_diff(warm, source); !diff.empty()) {
      std::fprintf(stderr, "warm-vs-saved state mismatch at n=%u: %s\n", n, diff.c_str());
      std::exit(1);
    }
    sink += warm.mis_size();
  }
  for (int rep = 0; rep < reps; ++rep) {
    const auto t_cold = Clock::now();
    {
      graph::Snapshot snap;
      if (!snap.open(engine_path, &error)) {
        std::fprintf(stderr, "engine snapshot open failed: %s\n", error.c_str());
        std::exit(1);
      }
      const core::CascadeEngine cold(graph::DynamicGraph::load(snap), seed);
      sink += cold.mis_size();
    }
    const double cold_s = std::chrono::duration<double>(Clock::now() - t_cold).count();
    if (rep == 0 || cold_s < r.engine_cold_s) r.engine_cold_s = cold_s;

    const auto t_warm = Clock::now();
    {
      graph::Snapshot snap;
      if (!snap.open(engine_path, &error)) {
        std::fprintf(stderr, "engine snapshot open failed: %s\n", error.c_str());
        std::exit(1);
      }
      const core::CascadeEngine warm(graph::DynamicGraph::load(snap), snap, seed,
                                     graph::SnapshotLoad::kWarm);
      sink += warm.mis_size();
    }
    const double warm_s = std::chrono::duration<double>(Clock::now() - t_warm).count();
    if (rep == 0 || warm_s < r.engine_warm_s) r.engine_warm_s = warm_s;
  }
  r.warm_speedup = r.engine_warm_s > 0 ? r.engine_cold_s / r.engine_warm_s : 0;
  if (sink == 0) std::fprintf(stderr, "(empty MIS — suspicious)\n");

  std::filesystem::remove(trace_path);
  std::filesystem::remove(snap_path);
  std::filesystem::remove(engine_path);
  return r;
}

bool write_json(const std::string& path, const std::vector<Result>& results,
                double deg, std::uint64_t seed, int reps) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"snapshot\",\n");
  std::fprintf(f, "  \"config\": {\"deg\": %.1f, \"seed\": %llu, \"reps\": %d},\n", deg,
               static_cast<unsigned long long>(seed), reps);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"n\": %u, \"edges\": %llu, \"snapshot_bytes\": %llu, "
                 "\"trace_bytes\": %llu, \"rebuild_s\": %.6f, "
                 "\"rebuild_tuned_s\": %.6f, \"save_s\": %.6f, "
                 "\"open_s\": %.6f, \"load_s\": %.6f, \"speedup_vs_rebuild\": %.2f, "
                 "\"engine_cold_s\": %.6f, \"engine_warm_s\": %.6f, "
                 "\"warm_speedup\": %.2f, \"borrow_open_s\": %.6f, "
                 "\"borrow_first_op_s\": %.6f, \"borrow_speedup\": %.2f}%s\n",
                 r.n, static_cast<unsigned long long>(r.edges),
                 static_cast<unsigned long long>(r.snapshot_bytes),
                 static_cast<unsigned long long>(r.trace_bytes), r.rebuild_s,
                 r.rebuild_tuned_s, r.save_s, r.open_s, r.load_s,
                 r.speedup_vs_rebuild, r.engine_cold_s, r.engine_warm_s,
                 r.warm_speedup, r.borrow_open_s, r.borrow_first_op_s,
                 r.borrow_speedup, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto seed =
      static_cast<std::uint64_t>(cli.flag_int("seed", 42, "graph and priority seed"));
  const double deg = cli.flag_double("deg", 8.0, "average degree");
  const int reps =
      static_cast<int>(cli.flag_int("reps", 3, "reps per phase (min reported)"));
  const auto sizes = cli.flag_int_list("sizes", "10000,100000,1000000", 2,
                                       "node counts, comma-separated");
  const auto out =
      cli.flag_string("out", "BENCH_snapshot.json", "machine-readable output path");
  const auto dir = cli.flag_string("dir", std::filesystem::temp_directory_path().string(),
                                   "scratch directory for the snapshot files");
  cli.finish();

  std::vector<Result> results;
  for (const std::int64_t n : sizes) {
    const Result r = run_size(static_cast<NodeId>(n), deg, seed, reps, dir);
    results.push_back(r);
    std::printf("n=%-8u edges=%-8llu rebuild=%8.4fs (tuned %8.4fs) save=%8.4fs "
                "open=%.6fs load=%8.4fs  speedup=%.1fx\n",
                r.n, static_cast<unsigned long long>(r.edges), r.rebuild_s,
                r.rebuild_tuned_s, r.save_s, r.open_s, r.load_s,
                r.speedup_vs_rebuild);
    std::printf("            engine-ready cold=%8.4fs warm=%8.4fs  warm-speedup=%.1fx\n",
                r.engine_cold_s, r.engine_warm_s, r.warm_speedup);
    std::printf("            borrowed open+query=%.6fs first-op=%.6fs  "
                "borrow-speedup=%.1fx\n",
                r.borrow_open_s, r.borrow_first_op_s, r.borrow_speedup);
    std::fflush(stdout);
  }
  return write_json(out, results, deg, seed, reps) ? 0 : 1;
}
