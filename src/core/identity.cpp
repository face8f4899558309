#include "core/identity.hpp"

#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace dmis::core {

std::uint64_t fingerprint(const CascadeEngine& engine) {
  const graph::DynamicGraph& g = engine.graph();
  const PriorityMap& priorities = engine.priorities();
  std::uint64_t h = util::kFnv1aSeed;
  const auto feed = [&h](std::uint64_t word) {
    h = util::fnv1a64(reinterpret_cast<const std::uint8_t*>(&word), sizeof word, h);
  };
  feed(g.id_bound());
  for (NodeId v = 0; v < g.id_bound(); ++v) {
    feed(priorities.key_or_zero(v));
    feed((g.has_node(v) ? 1U : 0U) | (engine.in_mis(v) ? 2U : 0U));
  }
  // A sum of mixed edge keys does not depend on the visiting order.
  std::uint64_t edges = 0;
  g.for_each_edge([&edges](NodeId u, NodeId v) {
    std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
    edges += util::splitmix64(key);
  });
  feed(g.edge_count());
  feed(edges);
  feed(engine.mis_size());
  for (const std::uint64_t word : priorities.rng_state()) feed(word);
  return h;
}

std::string state_diff(const CascadeEngine& a, const CascadeEngine& b) {
  const graph::DynamicGraph& ga = a.graph();
  const graph::DynamicGraph& gb = b.graph();
  if (ga.id_bound() != gb.id_bound())
    return "graph differs: id bound " + std::to_string(ga.id_bound()) + " vs " +
           std::to_string(gb.id_bound());
  const NodeId bound = ga.id_bound();
  for (NodeId v = 0; v < bound; ++v)
    if (ga.has_node(v) != gb.has_node(v))
      return "graph differs: node " + std::to_string(v) + " is live in " +
             (ga.has_node(v) ? "the first" : "the second") + " engine only";
  if (!(ga == gb))
    return "graph differs: edge sets (" + std::to_string(ga.edge_count()) + " vs " +
           std::to_string(gb.edge_count()) + " edges)";
  for (NodeId v = 0; v < bound; ++v)
    if (a.priorities().key_or_zero(v) != b.priorities().key_or_zero(v))
      return "priority keys differ at node " + std::to_string(v);
  for (NodeId v = 0; v < bound; ++v)
    if (a.in_mis(v) != b.in_mis(v))
      return "membership differs at node " + std::to_string(v);
  if (a.mis_size() != b.mis_size())
    return "|MIS| differs: " + std::to_string(a.mis_size()) + " vs " +
           std::to_string(b.mis_size());
  if (a.priorities().rng_state() != b.priorities().rng_state())
    return "priority RNG state differs";
  return "";
}

}  // namespace dmis::core
