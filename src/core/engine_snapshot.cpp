#include "core/engine_snapshot.hpp"

#include <vector>

#include "graph/snapshot.hpp"

namespace dmis::core {

namespace {

/// Clamp a raw key span to the graph's id bound: keys pinned beyond the id
/// space (tests can set_key arbitrary ids) have no node to describe, and the
/// writer zero-pads anything shorter.
[[nodiscard]] std::span<const std::uint64_t> keys_view(const PriorityMap& priorities,
                                                       const graph::DynamicGraph& g) {
  const auto keys = priorities.raw_keys();
  return keys.size() > g.id_bound() ? keys.first(g.id_bound()) : keys;
}

/// Stamp the priority seed + generator state into the view (the generator
/// state makes a warm restart a true continuation: future draws match the
/// saved process exactly).
void fill_rng(graph::EngineStateView& state, const PriorityMap& priorities) {
  state.priority_seed = priorities.seed();
  const util::Rng::State rng = priorities.rng_state();
  for (int w = 0; w < 4; ++w) state.rng_state[w] = rng[static_cast<std::size_t>(w)];
}

/// Shared tail for the distributed drivers: their membership lives in the
/// protocol's per-node state, so it is materialized into one byte array in
/// the snapshot's id-indexed shape.
template <typename Driver>
bool save_driver(const Driver& engine, const std::string& path, std::string* error) {
  const graph::DynamicGraph& g = engine.graph();
  std::vector<std::uint8_t> membership(g.id_bound(), 0);
  g.for_each_node(
      [&](graph::NodeId v) { membership[v] = engine.in_mis(v) ? 1 : 0; });
  graph::EngineStateView state;
  state.keys = keys_view(engine.priorities(), g);
  state.membership = membership;
  fill_rng(state, engine.priorities());
  return graph::save_snapshot(g, state, path, error);
}

}  // namespace

bool save_snapshot(const CascadeEngine& engine, const std::string& path,
                   std::string* error) {
  return save_snapshot(engine, path, util::FileFactory{}, error);
}

bool save_snapshot(const CascadeEngine& engine, const std::string& path,
                   const util::FileFactory& factory, std::string* error) {
  graph::EngineStateView state;
  state.keys = keys_view(engine.priorities(), engine.graph());
  state.membership = engine.membership();
  fill_rng(state, engine.priorities());
  return graph::save_snapshot(engine.graph(), state, path, factory, error);
}

bool save_snapshot(const DistMis& engine, const std::string& path, std::string* error) {
  return save_driver(engine, path, error);
}

bool save_snapshot(const AsyncMis& engine, const std::string& path, std::string* error) {
  return save_driver(engine, path, error);
}

}  // namespace dmis::core
