// Engine-state snapshot writer — the core-side half of the engine
// snapshot format (graph/snapshot.hpp, docs/FORMATS.md).
//
// An engine snapshot persists the graph plus the two arrays that, by the
// greedy fixpoint property (paper §3), completely determine an engine: the
// per-node priority keys and the MIS membership (plus the priority RNG
// state). These overloads write version 4 — the CSR is the only copy of the
// edge set. Only the serving engine ever restarts from them, so they take a
// CascadeEngine and hand its state to graph::save_snapshot; the matching
// read side is CascadeEngine's snapshot constructor (kAuto or kWarm on any
// file with engine state: v2, v3 or v4), which restarts without
// recomputing the greedy MIS. The distributed engines start from graphs
// only. dmis_snapshot `save --engine` / `load --warm` are the operator
// entry points, and `verify` deep-checks that the persisted membership is
// exactly the greedy fixpoint of the persisted keys.
#pragma once

#include <string>

#include "core/cascade_engine.hpp"
#include "util/fault_file.hpp"  // util::FileFactory

namespace dmis::core {

/// Write `engine`'s graph + engine state as a version-4 snapshot. Returns
/// false (with *error) on I/O failure.
bool save_snapshot(const CascadeEngine& engine, const std::string& path,
                   std::string* error = nullptr);
/// With the staging file opened through `factory` (the Checkpointer's
/// fault-injection seam — graph/snapshot.hpp; empty = real files).
bool save_snapshot(const CascadeEngine& engine, const std::string& path,
                   const util::FileFactory& factory, std::string* error = nullptr);

}  // namespace dmis::core
