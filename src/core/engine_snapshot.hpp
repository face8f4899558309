// Engine-state snapshot writer — the core-side half of the engine
// snapshot format (graph/snapshot.hpp, docs/FORMATS.md).
//
// An engine snapshot persists the graph plus the two arrays that, by the
// greedy fixpoint property (paper §3), completely determine an engine: the
// per-node priority keys and the MIS membership (plus the priority RNG
// state). Every engine save writes version 4 — the CSR is the only copy of
// the edge set — in two steps: capture_snapshot copies the engine into an
// in-memory image (graph::capture_snapshot, the one v4 byte emitter), and
// util::publish_staged checksums, writes, syncs and renames it. save_snapshot
// runs both on the calling thread; a service checkpoint captures on the
// serving thread and publishes on another (service/checkpoint.hpp). Only
// the serving engine ever restarts from these files, so they take a
// CascadeEngine; the matching read side is CascadeEngine's snapshot
// constructor (kAuto or kWarm on any file with engine state: v2, v3 or v4),
// which restarts without recomputing the greedy MIS. The distributed
// engines start from graphs only. dmis_snapshot `save --engine` / `load
// --warm` are the operator entry points, and `verify` deep-checks that the
// persisted membership is exactly the greedy fixpoint of the persisted keys.
#pragma once

#include <string>

#include "core/cascade_engine.hpp"
#include "graph/snapshot.hpp"  // graph::SnapshotImage
#include "util/fault_file.hpp"  // util::FileFactory

namespace dmis::core {

/// `engine`'s graph + engine state as a version-4 image. Reads the engine
/// and nothing else: the image owns its bytes.
[[nodiscard]] graph::SnapshotImage capture_snapshot(const CascadeEngine& engine);

/// Write `engine` as a version-4 snapshot (capture + publish, both here).
/// Returns false (with *error) on I/O failure.
bool save_snapshot(const CascadeEngine& engine, const std::string& path,
                   std::string* error = nullptr);
/// With the staging file opened through `factory` (the fault-injection
/// seam — util/binary_io.hpp; empty = real files).
bool save_snapshot(const CascadeEngine& engine, const std::string& path,
                   const util::FileFactory& factory, std::string* error = nullptr);

}  // namespace dmis::core
