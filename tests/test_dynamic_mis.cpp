// Dynamic MIS end to end on core::CascadeEngine, the library's one dynamic
// MIS: the quickstart flow, node removal keeping maximality, and same-seed
// reproducibility.
#include <gtest/gtest.h>

#include "core/cascade_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"

namespace {

using namespace dmis::core;

TEST(DynamicMIS, QuickstartFlow) {
  CascadeEngine engine(42);
  const NodeId a = engine.add_node();
  const NodeId b = engine.add_node();
  EXPECT_TRUE(engine.in_mis(a));
  EXPECT_TRUE(engine.in_mis(b));
  engine.add_edge(a, b);
  EXPECT_NE(engine.in_mis(a), engine.in_mis(b));
  EXPECT_EQ(engine.mis_size(), 1U);
  engine.remove_edge(a, b);
  EXPECT_TRUE(engine.in_mis(a));
  EXPECT_TRUE(engine.in_mis(b));
  engine.verify();
}

TEST(DynamicMIS, RemoveNodeKeepsMaximality) {
  dmis::util::Rng rng(5);
  const auto g = dmis::graph::erdos_renyi(40, 0.15, rng);
  CascadeEngine engine(g, 77);
  auto nodes = engine.graph().nodes();
  for (std::size_t i = 0; i < 20; ++i) {
    engine.remove_node(nodes[i]);
    engine.verify();
    EXPECT_TRUE(
        dmis::graph::is_maximal_independent_set(engine.graph(), engine.mis_set()));
  }
}

TEST(DynamicMIS, SameSeedReproducible) {
  auto run = [] {
    CascadeEngine engine(123);
    std::vector<NodeId> ids;
    for (int i = 0; i < 20; ++i)
      ids.push_back(engine.add_node(i > 0 ? std::vector<NodeId>{ids.back()}
                                          : std::vector<NodeId>{}));
    std::vector<bool> membership;
    for (const NodeId v : ids) membership.push_back(engine.in_mis(v));
    return membership;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
