#include "core/engine_snapshot.hpp"

namespace dmis::core {

bool save_snapshot(const CascadeEngine& engine, const std::string& path,
                   std::string* error) {
  return save_snapshot(engine, path, util::FileFactory{}, error);
}

bool save_snapshot(const CascadeEngine& engine, const std::string& path,
                   const util::FileFactory& factory, std::string* error) {
  graph::SnapshotImage image = capture_snapshot(engine);
  return util::publish_staged(path, image, factory, error);
}

graph::SnapshotImage capture_snapshot(const CascadeEngine& engine) {
  const graph::DynamicGraph& g = engine.graph();
  const PriorityMap& priorities = engine.priorities();
  graph::EngineStateView state;
  // Clamp the key span to the id bound: keys pinned beyond the id space
  // (tests can set_key arbitrary ids) have no node to describe, and the
  // writer zero-pads anything shorter.
  const auto keys = priorities.raw_keys();
  state.keys = keys.size() > g.id_bound() ? keys.first(g.id_bound()) : keys;
  state.membership = engine.membership();
  // The seed + generator state make a warm restart a true continuation:
  // future draws match the saved process exactly.
  state.priority_seed = priorities.seed();
  const util::Rng::State rng = priorities.rng_state();
  for (int w = 0; w < 4; ++w) state.rng_state[w] = rng[static_cast<std::size_t>(w)];
  return graph::capture_snapshot(g, state);
}

}  // namespace dmis::core
