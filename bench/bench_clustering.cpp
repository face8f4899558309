// E5 — correlation clustering 3-approximation (Ailon et al. via random
// greedy, §1.1).
//
// Table 1: small graphs where OPT is exactly computable — the empirical
//   E[pivot cost] / OPT ratio must be ≤ 3 (usually ≈ 1.1–1.6).
// Table 2: dynamic maintenance at scale — the incrementally maintained
//   clustering equals the from-scratch pivot clustering (history
//   independence of the composition) and reassignments per change are O(1)
//   on average.
#include <iostream>

#include "clustering/brute_force.hpp"
#include "clustering/correlation.hpp"
#include "clustering/dynamic_clustering.hpp"
#include "core/greedy_mis.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace dmis;
using util::OnlineStats;

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto trials = static_cast<int>(cli.flag_int("trials", 400, "orders per graph"));
  const auto instances =
      static_cast<int>(cli.flag_int("instances", 5, "random graphs per density"));
  cli.finish();

  std::cout << "# E5 — random-greedy pivot clustering vs exact OPT "
               "(paper: E[cost] ≤ 3·OPT)\n";
  util::Table table({"n", "p", "instance", "OPT", "E[cost] ± 95%", "ratio"});

  for (const double p : {0.2, 0.4, 0.6}) {
    for (int inst = 0; inst < instances; ++inst) {
      util::Rng rng(static_cast<std::uint64_t>(p * 100) * 31 +
                    static_cast<std::uint64_t>(inst));
      const graph::NodeId n = 10;
      const auto g = graph::erdos_renyi(n, p, rng);
      const auto opt = clustering::optimal_correlation_cost(g);

      OnlineStats cost;
      for (int t = 0; t < trials; ++t) {
        core::PriorityMap pri(5'000 + static_cast<std::uint64_t>(t) * 13);
        const auto mis = core::greedy_mis(g, pri);
        cost.add(static_cast<double>(
            clustering::correlation_cost(g, clustering::pivot_assignment(g, pri, mis))));
      }
      table.row()
          .cell(static_cast<std::uint64_t>(n))
          .cell(p, 1)
          .cell(static_cast<std::int64_t>(inst))
          .cell(opt)
          .cell_pm(cost.mean(), cost.ci95())
          .cell(opt == 0 ? 0.0 : cost.mean() / static_cast<double>(opt), 3);
    }
  }
  table.print(std::cout);
  std::cout << "\n(every ratio must be ≤ 3; OPT = 0 rows must have cost ≈ 0)\n";

  std::cout << "\n# E5b — dynamic maintenance: reassignments per change at scale\n";
  util::Table dyn({"n", "changes", "E[reassigned]/change", "E[MIS adj]/change",
                   "final cost", "fresh-recompute cost"});
  for (const graph::NodeId n : {200U, 800U}) {
    clustering::DynamicClustering dc(42 + n);
    std::vector<graph::NodeId> live;
    for (graph::NodeId v = 0; v < n; ++v) live.push_back(dc.add_node());
    util::Rng rng(n * 3);
    // Warm up to average degree ~6, then churn.
    for (graph::NodeId e = 0; e < 3 * n; ++e) {
      const auto u = live[rng.below(live.size())];
      const auto v = live[rng.below(live.size())];
      if (u != v && !dc.graph().has_edge(u, v)) dc.add_edge(u, v);
    }
    OnlineStats reassigned;
    OnlineStats mis_adjustments;
    const int changes = 2000;
    for (int step = 0; step < changes; ++step) {
      const auto u = live[rng.below(live.size())];
      const auto v = live[rng.below(live.size())];
      if (u == v) continue;
      if (dc.graph().has_edge(u, v)) dc.remove_edge(u, v);
      else dc.add_edge(u, v);
      reassigned.add(static_cast<double>(dc.last_reassigned()));
      mis_adjustments.add(static_cast<double>(dc.mis().last_report().adjustments));
    }
    dc.verify();  // incremental assignment == fresh pivot assignment
    const auto fresh_cost = clustering::correlation_cost(
        dc.graph(),
        clustering::pivot_assignment(dc.graph(), dc.mis().priorities(),
                                     dc.mis().membership()));
    dyn.row()
        .cell(static_cast<std::uint64_t>(n))
        .cell(static_cast<std::int64_t>(changes))
        .cell(reassigned.mean(), 3)
        .cell(mis_adjustments.mean(), 3)
        .cell(dc.cost())
        .cell(fresh_cost);
  }
  dyn.print(std::cout);
  std::cout << "\n(final cost must equal the fresh-recompute cost: the dynamic "
               "clustering is exactly the pivot clustering of the current graph)\n";
  return 0;
}
