// E4 — the §1.1 lower bounds.
//
// Deterministic: on K_{k,k}, deleting the side chosen as the MIS node by
// node forces, at some single change, k adjustments (here: the last
// deletion flips the whole right side). Randomized: the same adversarial
// sequence costs k total in expectation — amortized 1 per change, matching
// the paper's claim that expected adjustment complexity ≥ 1 is unavoidable —
// and the per-change maximum concentrates far below k only in *expectation*,
// with a heavy tail (no high-probability improvement is possible).
#include <iostream>

#include "baselines/deterministic_mis.hpp"
#include "core/cascade_engine.hpp"
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
  const auto trials = static_cast<int>(cli.flag_int("trials", 200, "randomized trials"));
  cli.finish();

  std::cout << "# E4 — deterministic lower bound on K_{k,k} left-side deletions\n";
  util::Table table({"k", "det max adj (one change)", "det total",
                     "rand E[max adj] ± 95%", "rand E[total] ± 95%",
                     "rand E[per change]"});

  for (const graph::NodeId k : {4U, 16U, 64U, 256U}) {
    // Deterministic algorithm: id order keeps the left side as the MIS until
    // the very last deletion, which flips everything.
    baselines::DeterministicMis det(graph::complete_bipartite(k, k));
    std::uint64_t det_max = 0;
    std::uint64_t det_total = 0;
    for (graph::NodeId v = 0; v < k; ++v) {
      const auto rep = det.remove_node(v);
      det_max = std::max(det_max, rep.adjustments);
      det_total += rep.adjustments;
    }

    OnlineStats rand_max;
    OnlineStats rand_total;
    OnlineStats rand_per_change;
    for (int t = 0; t < trials; ++t) {
      core::CascadeEngine mis(graph::complete_bipartite(k, k),
                             1'000 + static_cast<std::uint64_t>(t) * 7);
      std::uint64_t worst = 0;
      std::uint64_t total = 0;
      for (graph::NodeId v = 0; v < k; ++v) {
        mis.remove_node(v);
        const auto adj = mis.last_report().adjustments;
        worst = std::max(worst, adj);
        total += adj;
      }
      rand_max.add(static_cast<double>(worst));
      rand_total.add(static_cast<double>(total));
      rand_per_change.add(static_cast<double>(total) / static_cast<double>(k));
    }

    table.row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(det_max)
        .cell(det_total)
        .cell_pm(rand_max.mean(), rand_max.ci95())
        .cell_pm(rand_total.mean(), rand_total.ci95())
        .cell(rand_per_change.mean(), 3);
  }
  table.print(std::cout);

  std::cout << "\n(deterministic pays k in a single change; randomized pays ~k in "
               "total over k changes — amortized 1, the provable optimum. The "
               "randomized max is the one flip step, whose timing is uniform; "
               "its size is the number of right nodes flipped at the step where "
               "the surviving left minimum stops dominating.)\n";

  // Tail behavior: distribution of the single-change maximum for one k.
  std::cout << "\n# E4b — randomized per-change adjustment tail on K_{32,32}\n";
  util::Table tail({"quantile", "adjustments at quantile"});
  util::Histogram hist;
  for (int t = 0; t < trials * 5; ++t) {
    core::CascadeEngine mis(graph::complete_bipartite(32, 32),
                           9'000 + static_cast<std::uint64_t>(t));
    std::uint64_t worst = 0;
    for (graph::NodeId v = 0; v < 32; ++v) {
      mis.remove_node(v);
      worst = std::max(worst, mis.last_report().adjustments);
    }
    hist.add(static_cast<std::int64_t>(worst));
  }
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    tail.row().cell(util::format_double(q, 2)).cell(
        static_cast<std::int64_t>(hist.quantile(q)));
  }
  tail.print(std::cout);
  std::cout << "\n(heavy tail as predicted: no high-probability bound beats "
               "Markov — §1.1)\n";
  return 0;
}
