// E6/E7/E8 — the worked examples of §5: history-independent outputs vs the
// adversary-controlled "natural" greedy baseline.
//
//   E6  star:        E[MIS size] = (n−1)(1−1/n) + 1/n  vs natural = 1
//   E7  3-paths:     E[matching] = 5n/12               vs natural = n/4
//   E8  K_{k,k}−PM:  greedy coloring uses 2 colors w.p. 1−O(1/n)
//                    vs first-fit on the adversarial order = k colors;
//                    the MIS clique-expansion reduction is also measured.
#include <iostream>

#include "baselines/natural_greedy.hpp"
#include "core/cascade_engine.hpp"
#include "derived/dynamic_coloring.hpp"
#include "derived/dynamic_matching.hpp"
#include "derived/greedy_coloring.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/adversarial.hpp"

namespace {

using namespace dmis;
using util::OnlineStats;

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto trials = static_cast<int>(cli.flag_int("trials", 400, "random orders"));
  cli.finish();

  // ----- E6: MIS in a star --------------------------------------------------
  std::cout << "# E6 — §5 Example 1: MIS size in a star on n nodes\n";
  util::Table star({"n", "E[size] ± 95%", "paper prediction", "natural greedy",
                    "maximum IS"});
  for (const graph::NodeId n : {16U, 64U, 256U}) {
    OnlineStats size;
    for (int t = 0; t < trials; ++t) {
      core::CascadeEngine mis(graph::star(n), 100 + static_cast<std::uint64_t>(t) * 3);
      size.add(static_cast<double>(mis.mis_size()));
    }
    // Natural greedy under the adversarial center-first construction.
    baselines::NaturalGreedyMis natural;
    const auto center = natural.add_node();
    for (graph::NodeId v = 1; v < n; ++v) (void)natural.add_node({center});
    const double predicted =
        (static_cast<double>(n) - 1.0) * (1.0 - 1.0 / n) + 1.0 / n;
    star.row()
        .cell(static_cast<std::uint64_t>(n))
        .cell_pm(size.mean(), size.ci95())
        .cell(predicted, 2)
        .cell(static_cast<std::uint64_t>(natural.mis_set().size()))
        .cell(static_cast<std::uint64_t>(n - 1));
  }
  star.print(std::cout);

  // ----- E7: maximal matching on disjoint 3-edge paths ----------------------
  std::cout << "\n# E7 — §5 Example 2: matching size on n/4 disjoint 3-edge paths\n";
  util::Table paths({"n (nodes)", "E[matching] ± 95%", "paper 5n/12",
                     "natural (middle-first)", "maximum n/2"});
  for (const graph::NodeId path_count : {8U, 32U, 128U}) {
    const graph::NodeId n = 4 * path_count;
    OnlineStats size;
    for (int t = 0; t < trials / 2; ++t) {
      derived::DynamicMatching m(300 + static_cast<std::uint64_t>(t) * 7);
      for (graph::NodeId i = 0; i < n; ++i) (void)m.add_node();
      for (graph::NodeId i = 0; i < path_count; ++i) {
        const graph::NodeId base = 4 * i;
        m.add_edge(base, base + 1);
        m.add_edge(base + 1, base + 2);
        m.add_edge(base + 2, base + 3);
      }
      size.add(static_cast<double>(m.matching_size()));
    }
    baselines::NaturalGreedyMatching natural;
    for (graph::NodeId i = 0; i < n; ++i) (void)natural.add_node();
    for (graph::NodeId i = 0; i < path_count; ++i) {
      const graph::NodeId base = 4 * i;
      natural.add_edge(base + 1, base + 2);
      natural.add_edge(base, base + 1);
      natural.add_edge(base + 2, base + 3);
    }
    paths.row()
        .cell(static_cast<std::uint64_t>(n))
        .cell_pm(size.mean(), size.ci95())
        .cell(5.0 * n / 12.0, 2)
        .cell(static_cast<std::uint64_t>(natural.matching_size()))
        .cell(static_cast<std::uint64_t>(n / 2));
  }
  paths.print(std::cout);

  // ----- E8: coloring K_{k,k} minus a perfect matching ----------------------
  std::cout << "\n# E8 — §5 Example 3: coloring K_{k,k} minus a perfect matching\n";
  util::Table coloring({"k (n = 2k)", "P(greedy uses 2 colors)",
                        "E[greedy colors]", "first-fit (adversarial order)",
                        "MIS-reduction colors (one sample)"});
  for (const graph::NodeId k : {8U, 16U, 32U}) {
    const auto g = graph::bipartite_minus_perfect_matching(k);
    int two = 0;
    OnlineStats colors;
    for (int t = 0; t < trials; ++t) {
      derived::GreedyColoringEngine engine(g, 500 + static_cast<std::uint64_t>(t) * 11);
      const auto used = engine.palette_used();
      colors.add(static_cast<double>(used));
      two += used == 2 ? 1 : 0;
    }

    // First-fit under the §5 adversarial alternating arrival order.
    const auto adversarial = workload::bipartite_minus_pm_alternating(k);
    const auto adversarial_graph = workload::materialize(adversarial);
    std::vector<graph::NodeId> order;
    for (graph::NodeId v = 0; v < 2 * k; ++v) order.push_back(v);
    const auto ff = baselines::first_fit_coloring(adversarial_graph, order);
    graph::NodeId ff_max = 0;
    for (const auto v : adversarial_graph.nodes()) ff_max = std::max(ff_max, ff[v]);

    // One sample of the clique-expansion reduction (palette = k: Δ = k−1).
    derived::DynamicColoring reduction(k, 999 + k);
    for (graph::NodeId v = 0; v < 2 * k; ++v) (void)reduction.add_node();
    for (const auto& [u, v] : g.edges()) reduction.add_edge(u, v);
    reduction.verify();

    coloring.row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(two / static_cast<double>(trials), 3)
        .cell_pm(colors.mean(), colors.ci95())
        .cell(static_cast<std::uint64_t>(ff_max) + 1)
        .cell(reduction.palette_used());
  }
  coloring.print(std::cout);
  std::cout << "\n(paper sketch: 2-coloring w.p. 1 − 1/n; measured bad-order "
               "probability is ≈ 1.75/n — same vanishing rate. First-fit is "
               "forced to k colors by the adversary.)\n";
  return 0;
}
