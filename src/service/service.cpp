#include "service/service.hpp"

#include <string_view>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/fs.hpp"

namespace dmis::service {

std::optional<MisService> MisService::open(ServiceConfig config, std::string* error) {
  RecoveryReport report;
  std::optional<core::CascadeEngine> engine =
      RecoveryManager(config.dir, {.priority_seed = config.priority_seed,
                                   .borrow = config.borrow})
          .recover(&report, error);
  if (!engine.has_value()) return std::nullopt;
  return adopt(std::move(config), std::move(*engine), std::move(report), error);
}

std::optional<MisService> MisService::adopt(ServiceConfig config,
                                            core::CascadeEngine engine,
                                            RecoveryReport report, std::string* error) {
  if (!util::ensure_dir(config.dir, error)) return std::nullopt;
  const std::uint64_t lsn = report.recovered_lsn;
  const std::vector<SegmentInfo> segments = list_segments(config.dir);

  WalWriterOptions wal_options;
  wal_options.fsync = config.fsync;
  wal_options.fsync_interval_records = config.fsync_interval_records;
  wal_options.segment_bytes = config.segment_bytes;
  wal_options.file_factory = config.file_factory;
  WalWriter wal;
  if (!wal.open(config.dir, segments.empty() ? 1 : segments.back().seq + 1, lsn,
                std::move(wal_options), error))
    return std::nullopt;
  // Only now move superseded segments aside: the fresh segment already
  // holds the highest seq, so no seq is ever reused, even if a crash lands
  // between the two steps (the next open then moves them).
  for (const SegmentInfo& seg : segments) {
    if (seg.base_lsn <= lsn) continue;
    const std::string aside = seg.path + ".unreachable";
    if (!util::atomic_publish(seg.path, aside, error)) return std::nullopt;
    report.detail += "moved aside: " + aside + "\n";
  }
  // Checkpoint staging files: saves a crash interrupted and partial
  // shipments of a follower that now serves. Nothing reads them, no later
  // save reuses their lsn-bearing names, and a later follow into this
  // directory would append another leader's bytes to a stale prefix.
  for (const std::string_view suffix : kCheckpointStagingSuffixes) {
    for (const CheckpointInfo& staged : list_checkpoints(config.dir, suffix)) {
      if (!util::remove_file(staged.path, error)) return std::nullopt;
      report.detail += "removed staging file: " + staged.path + "\n";
    }
  }
  MisService service(std::move(config), std::move(engine), std::move(wal),
                     std::move(report));
  return service;
}

bool MisService::apply(const core::Batch& batch, std::string* error) {
  if (batch.empty()) return true;
  const bool checkpoint_due =
      config_.checkpoint_interval_ops > 0 &&
      lsn_ + batch.size() - checkpointer_.last_lsn() >= config_.checkpoint_interval_ops;
  // A failed background publish surfaces here, before the batch is logged,
  // so the lsn does not move. A checkpoint this batch makes due waits for
  // the publish in flight rather than skipping it: skipping would let the
  // WAL tail, and with it recovery, grow without bound on a slow disk.
  if (!checkpointer_.finish(/*block=*/checkpoint_due, error)) return false;
  // Durability before application: the op must be on the log (and synced,
  // per policy) before the engine acts on it — the WAL may run ahead of
  // the engine across a crash (replay is idempotent from the checkpoint),
  // but the engine must never run ahead of the WAL.
  if (config_.fsync == FsyncPolicy::kEveryOp) {
    // One record — and one fsync — per op: an acked op survives any crash.
    for (std::size_t i = 0; i < batch.size(); ++i)
      if (!wal_.append(batch, i, 1, error)) return false;
  } else {
    if (!wal_.append(batch, error)) return false;
  }
  core::apply_batch(engine_, batch, result_);
  lsn_ += batch.size();
  DMIS_ASSERT(lsn_ == wal_.next_lsn());
  if (!checkpoint_due) return true;
  // Sync first, as checkpoint() does; the capture is then all this thread
  // pays, and the publisher thread writes and truncates.
  if (!wal_.sync(error)) return false;
  checkpointer_.checkpoint_in_background(engine_, lsn_);
  return true;
}

bool MisService::sync(std::string* error) {
  return checkpointer_.finish(/*block=*/true, error) && wal_.sync(error);
}

bool MisService::checkpoint(std::string* error) {
  // Sync first so durable_lsn() is monotone through a checkpoint: the
  // snapshot makes ops ≤ lsn durable by itself, but the WAL behind it must
  // be complete before truncation may delete segments.
  return wal_.sync(error) && checkpointer_.checkpoint(engine_, lsn_, error);
}

bool MisService::close(std::string* error) {
  const bool published = checkpointer_.finish(/*block=*/true, error);
  return wal_.close(published ? error : nullptr) && published;
}

}  // namespace dmis::service
