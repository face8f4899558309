#include "service/recovery.hpp"

#include <algorithm>
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
    batch.append(static_cast<core::BatchOp::Kind>(op.kind), op.u, op.v,
                 view.arena.subspan(op.nbr_begin, op.nbr_count));
  }
  core::apply_batch(engine, batch, result);
}

const SegmentInfo* LogReplayer::segment_holding(const std::vector<SegmentInfo>& segments,
                                                std::uint64_t lsn) {
  const SegmentInfo* best = nullptr;
  for (const SegmentInfo& seg : segments)
    if (seg.base_lsn <= lsn && (best == nullptr || seg.base_lsn >= best->base_lsn))
      best = &seg;  // ascending seq: on a base tie the later seq wins
  return best;
}

void LogReplayer::reset(std::uint64_t lsn) {
  applied_lsn_ = lsn;
  checkpoint_lsn_ = lsn;
  reader_ = WalSegmentReader{};
  reader_seq_ = 0;
}

bool LogReplayer::warm(bool borrow, RecoveryReport& report) {
  const auto t_open = Clock::now();
  graph::Snapshot snapshot;
  const CheckpointInfo* chosen = nullptr;
  const std::vector<CheckpointInfo> checkpoints = list_checkpoints(dir_);
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    if (engine_.has_value() && it->lsn <= applied_lsn_) break;
    std::string cp_error;
    graph::Snapshot candidate;
    bool good = candidate.open(it->path, &cp_error);
    good = good && (candidate.has_engine_state() ||
                    (set_error(&cp_error, it->path + ": no engine state (v1)"), false));
    good = good && candidate.verify(&cp_error);
    if (good) {
      snapshot = std::move(candidate);
      chosen = &*it;
      break;
    }
    ++report.checkpoints_rejected;
    report.detail += "rejected checkpoint: " + cp_error + "\n";
  }
  report.open_s = seconds_since(t_open);
  if (chosen == nullptr) return false;

  // Bring up the graph (borrow the mapping in place, or materialize heap
  // copies), then warm-start the engine (bulk key + membership adoption,
  // zero recompute).
  const auto t_load = Clock::now();
  std::shared_ptr<const graph::Snapshot> shared;
  graph::DynamicGraph g;
  if (borrow) {
    shared = std::make_shared<graph::Snapshot>(std::move(snapshot));
    g = graph::DynamicGraph::borrow(shared);
  } else {
    g = graph::DynamicGraph::load(snapshot);
  }
  report.load_s = seconds_since(t_load);
  // Valid on both arms: the borrowed graph keeps `shared` alive; the
  // materialized arm never moved `snapshot`.
  const graph::Snapshot& src = shared != nullptr ? *shared : snapshot;
  const auto t_warm = Clock::now();
  engine_.emplace(std::move(g), src, src.priority_seed(), graph::SnapshotLoad::kWarm);
  report.warm_s = seconds_since(t_warm);
  report.borrowed = borrow;
  report.checkpoint_lsn = chosen->lsn;
  report.checkpoint_path = chosen->path;
  reset(chosen->lsn);
  return true;
}

void LogReplayer::cold(std::uint64_t priority_seed) {
  engine_.emplace(priority_seed);
  reset(0);
}

core::CascadeEngine LogReplayer::take_engine() {
  DMIS_ASSERT_MSG(engine_.has_value(), "LogReplayer::take_engine without an engine");
  core::CascadeEngine engine = std::move(*engine_);
  engine_.reset();
  reset(0);
  return engine;
}

bool LogReplayer::open_segment(const SegmentInfo& segment, RecoveryReport& report) {
  WalSegmentReader reader;
  std::string open_error;
  if (!reader.open(segment.path, &open_error)) {
    // The header parsed during listing but the segment cannot be mapped
    // now: the chain ends before it.
    report.detail += "unreadable segment: " + open_error + "\n";
    return false;
  }
  reader_ = std::move(reader);
  reader_seq_ = segment.seq;
  ++report.segments_scanned;
  return true;
}

LogReplayer::Stop LogReplayer::catch_up(RecoveryReport& report) {
  DMIS_ASSERT_MSG(engine_.has_value(), "LogReplayer::catch_up without an engine");
  if (reader_seq_ == 0) {
    std::vector<std::string> skipped;
    const std::vector<SegmentInfo> segments = list_segments(dir_, &skipped);
    for (const std::string& s : skipped) report.detail += "skipped file: " + s + "\n";
    const SegmentInfo* seg = segment_holding(segments, applied_lsn_);
    if (seg == nullptr) return Stop::kNoSegment;
    if (!open_segment(*seg, report)) return Stop::kUnreachable;
  }
  for (;;) {
    WalSegmentReader::Next state;
    WalRecordView view;
    while ((state = reader_.next(&view)) == WalSegmentReader::Next::kRecord) {
      const std::uint64_t record_end = view.lsn + view.ops.size();
      if (record_end <= applied_lsn_) continue;  // inside the warm start
      const auto from = static_cast<std::size_t>(applied_lsn_ - view.lsn);
      replay_wal_record(*engine_, view, from, batch_, result_);
      ++report.records_replayed;
      report.replayed_ops += view.ops.size() - from;
      applied_lsn_ = record_end;
    }
    // kEnd / kTorn may be a tail that is still being written or shipped:
    // refresh() re-maps on growth and rescans prefix-safely.
    if (state != WalSegmentReader::Next::kSealed && reader_.refresh(nullptr)) continue;

    // The chain rule: continue into the next segment by seq iff it starts
    // exactly where this one's valid records end (any bytes after them here
    // are a dead tail).
    const std::uint64_t end_lsn = reader_.next_lsn();
    const std::vector<SegmentInfo> segments = list_segments(dir_);
    const auto next = std::find_if(segments.begin(), segments.end(),
                                   [&](const SegmentInfo& s) { return s.seq > reader_seq_; });
    const bool continues = next != segments.end() && next->base_lsn == end_lsn;
    if (state == WalSegmentReader::Next::kTorn) {
      report.detail += reader_.tail_detail() +
                       (continues ? " (dead tail; stream continues in next segment)\n"
                                  : " (log ends here)\n");
      if (!continues) report.torn_tail = true;
    }
    if (next == segments.end()) return Stop::kChainEnd;
    if (!continues || !open_segment(*next, report)) {
      report.detail += "segments after lsn " + std::to_string(end_lsn) +
                       " do not continue the log and are unreachable\n";
      return Stop::kUnreachable;
    }
  }
}

std::optional<core::CascadeEngine> RecoveryManager::recover(RecoveryReport* report,
                                                            std::string* error) {
  RecoveryReport local;
  RecoveryReport& r = report != nullptr ? *report : local;
  r = RecoveryReport{};

  LogReplayer replayer(dir_);
  if (!replayer.warm(options_.borrow, r)) {
    const auto t_warm = Clock::now();
    replayer.cold(options_.priority_seed);
    r.warm_s = seconds_since(t_warm);
  }
  const auto t_replay = Clock::now();
  const LogReplayer::Stop stop = replayer.catch_up(r);
  r.replay_s = seconds_since(t_replay);
  r.recovered_lsn = replayer.applied_lsn();
  if (stop == LogReplayer::Stop::kUnreachable) r.torn_tail = true;
  if (stop == LogReplayer::Stop::kNoSegment) {
    // Ops [recovered_lsn, oldest base_lsn) exist nowhere: replaying past
    // the hole would produce a silently wrong engine. Crashes cannot cause
    // this (truncation keeps coverage); only deleted files can.
    const std::vector<SegmentInfo> segments = list_segments(dir_);
    if (!segments.empty()) {
      set_error(error, segments.front().path + ": wal gap: segment starts at lsn " +
                           std::to_string(segments.front().base_lsn) +
                           " but recovery has only reached " +
                           std::to_string(r.recovered_lsn));
      return std::nullopt;
    }
  }
  return replayer.take_engine();
}

}  // namespace dmis::service
