// E14 — per-update latency and sustained throughput of the sequential hot
// path (CascadeEngine), the perf-trajectory anchor for this repository.
//
// Three workloads at n ∈ {1e4, 1e5, 1e6} (override with --sizes):
//   * insert — insertion-heavy: random edge insertions into a sparse graph;
//   * delete — deletion-heavy: random edge deletions from a warm graph;
//   * churn  — steady-state toggles (remove if present, insert otherwise) on
//     a warm graph, the regime where allocator traffic shows up most.
//
// Each update is timed individually (steady_clock), so the output has both
// aggregate updates/sec and the p50/p95/p99 latency tail. Results are
// appended to a machine-readable JSON file (default BENCH_update_latency.json
// in the working directory) so successive PRs can diff the trajectory.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/cascade_engine.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace dmis;
using graph::NodeId;
using Clock = std::chrono::steady_clock;

struct Result {
  std::string workload;
  NodeId n = 0;
  double avg_degree = 0;
  std::uint64_t ops = 0;
  double seconds = 0;
  double updates_per_sec = 0;
  double ns_p50 = 0, ns_p95 = 0, ns_p99 = 0, ns_max = 0;
  double adjustments_per_update = 0;
};

double percentile(std::vector<std::uint32_t>& ns, double p) {
  if (ns.empty()) return 0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(idx), ns.end());
  return static_cast<double>(ns[idx]);
}

Result summarize(const char* workload, NodeId n, double deg, std::uint64_t applied,
                 std::uint64_t adjustments, std::vector<std::uint32_t>& ns) {
  Result r;
  r.workload = workload;
  r.n = n;
  r.avg_degree = deg;
  r.ops = applied;
  double total_ns = 0;
  for (const auto t : ns) total_ns += static_cast<double>(t);
  r.seconds = total_ns * 1e-9;
  r.updates_per_sec = r.seconds > 0 ? static_cast<double>(applied) / r.seconds : 0;
  r.ns_p50 = percentile(ns, 0.50);
  r.ns_p95 = percentile(ns, 0.95);
  r.ns_p99 = percentile(ns, 0.99);
  r.ns_max = ns.empty() ? 0 : static_cast<double>(*std::max_element(ns.begin(), ns.end()));
  r.adjustments_per_update =
      applied > 0 ? static_cast<double>(adjustments) / static_cast<double>(applied) : 0;
  return r;
}

/// Time one engine call, push the latency, and accumulate adjustments.
template <typename F>
void timed(F&& op, std::vector<std::uint32_t>& ns, const core::CascadeEngine& engine,
           std::uint64_t& adjustments) {
  const auto t0 = Clock::now();
  op();
  const auto t1 = Clock::now();
  ns.push_back(static_cast<std::uint32_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  adjustments += engine.last_report().adjustments;
}

Result run_insert(NodeId n, double deg, std::uint64_t ops, std::uint64_t seed) {
  core::CascadeEngine engine(graph::DynamicGraph(n), seed);
  util::Rng rng(seed * 11 + 1);
  std::vector<std::uint32_t> ns;
  ns.reserve(ops);
  std::uint64_t adjustments = 0;
  const auto max_edges = static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(deg) / 2;
  while (ns.size() < ops && engine.graph().edge_count() < max_edges) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v || engine.graph().has_edge(u, v)) continue;
    timed([&] { engine.add_edge(u, v); }, ns, engine, adjustments);
  }
  return summarize("insert", n, deg, ns.size(), adjustments, ns);
}

Result run_delete(NodeId n, double deg, std::uint64_t ops, std::uint64_t seed) {
  util::Rng graph_rng(seed);
  core::CascadeEngine engine(graph::random_avg_degree(n, deg, graph_rng), seed);
  util::Rng rng(seed * 11 + 2);
  auto edges = engine.graph().edges();
  rng.shuffle(edges);
  if (edges.size() > ops) edges.resize(ops);
  std::vector<std::uint32_t> ns;
  ns.reserve(edges.size());
  std::uint64_t adjustments = 0;
  for (const auto& [u, v] : edges)
    timed([&] { engine.remove_edge(u, v); }, ns, engine, adjustments);
  return summarize("delete", n, deg, ns.size(), adjustments, ns);
}

Result run_churn(NodeId n, double deg, std::uint64_t ops, std::uint64_t seed) {
  util::Rng graph_rng(seed);
  core::CascadeEngine engine(graph::random_avg_degree(n, deg, graph_rng), seed);
  util::Rng rng(seed * 11 + 3);
  std::vector<std::uint32_t> ns;
  ns.reserve(ops);
  std::uint64_t adjustments = 0;
  while (ns.size() < ops) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    if (engine.graph().has_edge(u, v))
      timed([&] { engine.remove_edge(u, v); }, ns, engine, adjustments);
    else
      timed([&] { engine.add_edge(u, v); }, ns, engine, adjustments);
  }
  return summarize("churn", n, deg, ns.size(), adjustments, ns);
}

bool write_json(const std::string& path, const std::vector<Result>& results,
                std::uint64_t ops, std::uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"update_latency\",\n");
  std::fprintf(f, "  \"config\": {\"ops\": %llu, \"seed\": %llu},\n",
               static_cast<unsigned long long>(ops), static_cast<unsigned long long>(seed));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"n\": %u, \"avg_degree\": %.1f, "
                 "\"ops\": %llu, \"seconds\": %.6f, \"updates_per_sec\": %.0f, "
                 "\"ns_p50\": %.0f, \"ns_p95\": %.0f, \"ns_p99\": %.0f, "
                 "\"ns_max\": %.0f, \"adjustments_per_update\": %.4f}%s\n",
                 r.workload.c_str(), r.n, r.avg_degree,
                 static_cast<unsigned long long>(r.ops), r.seconds, r.updates_per_sec,
                 r.ns_p50, r.ns_p95, r.ns_p99, r.ns_max, r.adjustments_per_update,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto ops =
      static_cast<std::uint64_t>(cli.flag_int("ops", 200'000, "updates per cell"));
  const auto seed = static_cast<std::uint64_t>(cli.flag_int("seed", 42, "base seed"));
  const double deg = cli.flag_double("deg", 8.0, "average degree of the base graph");
  const auto sizes = cli.flag_int_list("sizes", "10000,100000,1000000", 2,
                                       "node counts, comma-separated");
  const auto out = cli.flag_string("out", "BENCH_update_latency.json",
                                   "machine-readable output path");
  cli.finish();

  std::vector<Result> results;
  for (const std::int64_t n : sizes) {
    using RunFn = Result (*)(NodeId, double, std::uint64_t, std::uint64_t);
    for (const RunFn fn : {&run_insert, &run_delete, &run_churn}) {
      const Result r = fn(static_cast<NodeId>(n), deg, ops, seed);
      results.push_back(r);
      std::printf("%-7s n=%-8u ops=%-7llu %12.0f upd/s  p50=%5.0fns p95=%6.0fns "
                  "p99=%7.0fns adj/upd=%.3f\n",
                  r.workload.c_str(), r.n, static_cast<unsigned long long>(r.ops),
                  r.updates_per_sec, r.ns_p50, r.ns_p95, r.ns_p99,
                  r.adjustments_per_update);
    }
  }
  return write_json(out, results, ops, seed) ? 0 : 1;
}
