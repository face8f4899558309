#include "service/recovery.hpp"

#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "graph/snapshot.hpp"
#include "service/checkpoint.hpp"
#include "service/wal.hpp"
#include "util/assert.hpp"
#include "util/binary_io.hpp"  // set_error

namespace dmis::service {

using util::set_error;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

void replay_wal_record(core::CascadeEngine& engine, const WalRecordView& view,
                       std::size_t from, core::Batch& batch,
                       core::BatchResult& result) {
  batch.clear();
  for (std::size_t i = from; i < view.ops.size(); ++i) {
    const WalOpRecord& op = view.ops[i];
    switch (static_cast<core::BatchOp::Kind>(op.kind)) {
      case core::BatchOp::Kind::kAddEdge:
        batch.add_edge(op.u, op.v);
        break;
      case core::BatchOp::Kind::kRemoveEdge:
        batch.remove_edge(op.u, op.v);
        break;
      case core::BatchOp::Kind::kAddNode:
        batch.add_node(std::span<const graph::NodeId>(
            view.arena.data() + op.nbr_begin, op.nbr_count));
        break;
      case core::BatchOp::Kind::kRemoveNode:
        batch.remove_node(op.u);
        break;
    }
  }
  core::apply_batch(engine, batch, result);
}

std::optional<core::CascadeEngine> RecoveryManager::recover(RecoveryReport* report,
                                                            std::string* error) {
  RecoveryReport local;
  RecoveryReport& r = report != nullptr ? *report : local;
  r = RecoveryReport{};

  // Phase 1 — newest checkpoint that opens and verifies.
  const auto t_open = Clock::now();
  graph::Snapshot snapshot;
  {
    const std::vector<CheckpointInfo> checkpoints = list_checkpoints(dir_);
    for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
      std::string cp_error;
      graph::Snapshot candidate;
      bool good = candidate.open(it->path, &cp_error);
      good = good && (candidate.has_engine_state() ||
                      (set_error(&cp_error, it->path + ": no engine state (v1)"), false));
      good = good && candidate.verify(&cp_error);
      if (!good) {
        ++r.checkpoints_rejected;
        r.detail += "rejected checkpoint: " + cp_error + "\n";
        continue;
      }
      snapshot = std::move(candidate);
      r.checkpoint_lsn = it->lsn;
      r.checkpoint_path = it->path;
      break;
    }
  }
  r.open_s = seconds_since(t_open);

  // Phase 2 — bring up the graph (borrow the mapping in place, or
  // materialize heap copies), then warm-start the engine (bulk key +
  // membership adoption, zero recompute). With no usable checkpoint: a
  // fresh engine that the replay builds from lsn 0.
  std::optional<core::CascadeEngine> engine;
  if (snapshot.is_open()) {
    const auto t_load = Clock::now();
    std::shared_ptr<const graph::Snapshot> shared;
    graph::DynamicGraph g;
    if (options_.borrow) {
      shared = std::make_shared<graph::Snapshot>(std::move(snapshot));
      g = graph::DynamicGraph::borrow(shared);
      r.borrowed = true;
    } else {
      g = graph::DynamicGraph::load(snapshot);
    }
    r.load_s = seconds_since(t_load);
    // Valid on both arms: the borrowed graph keeps `shared` alive; the
    // materialized arm never moved `snapshot`.
    const graph::Snapshot& src = shared != nullptr ? *shared : snapshot;
    const auto t_warm = Clock::now();
    engine.emplace(std::move(g), src, src.priority_seed(), graph::SnapshotLoad::kWarm);
    r.warm_s = seconds_since(t_warm);
  } else {
    const auto t_warm = Clock::now();
    engine.emplace(options_.priority_seed);
    r.warm_s = seconds_since(t_warm);
  }
  r.recovered_lsn = r.checkpoint_lsn;

  // Phase 3 — replay the WAL tail.
  const auto t_replay = Clock::now();
  std::vector<std::string> skipped;
  const std::vector<SegmentInfo> segments = list_segments(dir_, &skipped);
  for (const std::string& s : skipped) r.detail += "skipped file: " + s + "\n";

  core::Batch batch;         // reused across records
  core::BatchResult result;  // reused across records
  bool stop = false;
  for (std::size_t i = 0; i < segments.size() && !stop; ++i) {
    const SegmentInfo& seg = segments[i];
    // Wholly behind the checkpoint (its ops end where the next segment
    // begins) — no need to even map it.
    if (i + 1 < segments.size() && segments[i + 1].base_lsn <= r.recovered_lsn)
      continue;
    if (seg.base_lsn > r.recovered_lsn) {
      // Ops [recovered_lsn, base_lsn) exist nowhere: replaying past the
      // hole would produce a silently wrong engine. Crashes cannot cause
      // this (truncation keeps coverage); only deleted files can.
      set_error(error, seg.path + ": wal gap: segment starts at lsn " +
                           std::to_string(seg.base_lsn) +
                           " but recovery has only reached " +
                           std::to_string(r.recovered_lsn));
      return std::nullopt;
    }

    WalSegmentReader reader;
    std::string seg_error;
    if (!reader.open(seg.path, &seg_error)) {
      // The header parsed during listing but the segment cannot be read
      // now — treat like a torn tail: keep the prefix, drop the rest.
      r.detail += "unreadable segment: " + seg_error + "\n";
      r.torn_tail = true;
      break;
    }
    ++r.segments_scanned;

    WalSegmentReader::Next state;
    WalRecordView view;
    while ((state = reader.next(&view)) == WalSegmentReader::Next::kRecord) {
      const std::uint64_t record_end = view.lsn + view.ops.size();
      if (record_end <= r.recovered_lsn) continue;  // inside the checkpoint
      const auto from = static_cast<std::size_t>(r.recovered_lsn - view.lsn);
      replay_wal_record(*engine, view, from, batch, result);
      ++r.records_replayed;
      r.replayed_ops += view.ops.size() - from;
      r.recovered_lsn = record_end;
    }

    // Terminal state: decide whether the stream continues in the next
    // segment. The crash-tail shape a previous recovery leaves behind —
    // segment k ends torn/unsealed at L, segment k+1 starts at exactly L —
    // continues; anything else ends the log here.
    const std::uint64_t end_lsn = reader.next_lsn();
    const bool has_next = i + 1 < segments.size();
    const bool continues = has_next && segments[i + 1].base_lsn == end_lsn;
    if (state == WalSegmentReader::Next::kTorn) {
      r.detail += reader.tail_detail() +
                  (continues ? " (dead tail; stream continues in next segment)\n"
                             : " (log ends here)\n");
      if (!continues) r.torn_tail = true;
    }
    if (has_next && !continues) {
      r.torn_tail = true;
      r.detail += "segments after lsn " + std::to_string(end_lsn) +
                  " are unreachable and were dropped\n";
      stop = true;
    }
  }
  r.replay_s = seconds_since(t_replay);
  return engine;
}

}  // namespace dmis::service
