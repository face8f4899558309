// Quickstart: maintain a maximal independent set of a changing graph.
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/example_quickstart
#include <cstdint>
#include <iostream>

#include "core/cascade_engine.hpp"

int main() {
  // One seed drives all randomness: the same update sequence with the same
  // seed is exactly reproducible.
  dmis::core::CascadeEngine mis(/*priority_seed=*/2026);

  // Every update reports its adjustments (nodes whose membership flipped);
  // the lifetime tally tracks Theorem 1's expected ≤ 1 per change.
  std::uint64_t updates = 0;
  std::uint64_t adjustments = 0;
  const auto tally = [&] {
    ++updates;
    adjustments += mis.last_report().adjustments;
  };

  // Insert nodes; each returns a stable id.
  const auto a = mis.add_node();
  tally();
  const auto b = mis.add_node();
  tally();
  const auto c = mis.add_node({a, b});  // c arrives wired to a and b
  tally();

  std::cout << "after inserts:  |MIS| = " << mis.mis_size() << "  members:";
  for (const auto v : mis.mis_set()) std::cout << ' ' << v;
  std::cout << '\n';

  // Topology changes; the structure self-repairs with expected one
  // adjustment per change (paper: Censor-Hillel–Haramaty–Karnin, Theorem 1).
  mis.add_edge(a, b);
  tally();
  std::cout << "after a–b edge: adjustments=" << mis.last_report().adjustments
            << "  |MIS| = " << mis.mis_size() << '\n';

  mis.remove_node(b);
  tally();
  std::cout << "after del b:    adjustments=" << mis.last_report().adjustments
            << "  |MIS| = " << mis.mis_size() << '\n';

  // Membership queries are O(1).
  std::cout << "a in MIS? " << (mis.in_mis(a) ? "yes" : "no")
            << ", c in MIS? " << (mis.in_mis(c) ? "yes" : "no") << '\n';

  // The maintained set always equals the from-scratch random-greedy MIS of
  // the *current* graph (history independence); verify() asserts it.
  mis.verify();

  std::cout << "lifetime: " << updates << " updates, " << adjustments
            << " total adjustments\n";
  return 0;
}
