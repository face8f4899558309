#include "service/service.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/fs.hpp"

namespace dmis::service {

std::optional<MisService> MisService::open(ServiceConfig config, std::string* error) {
  if (!util::ensure_dir(config.dir, error)) return std::nullopt;

  RecoveryOptions recovery_options;
  recovery_options.priority_seed = config.priority_seed;
  recovery_options.borrow = config.borrow;
  RecoveryManager manager(config.dir, recovery_options);
  RecoveryReport report;
  std::optional<core::CascadeEngine> engine = manager.recover(&report, error);
  if (!engine.has_value()) return std::nullopt;

  // The writer always starts a fresh segment after the highest existing
  // seq, based at the recovered lsn. A dead tail in the old active segment
  // (beyond the recovered lsn) stays where it is; recovery ignores it
  // because the new segment's base_lsn continues from the recovered lsn.
  std::uint64_t max_seq = 0;
  for (const SegmentInfo& seg : list_segments(config.dir)) max_seq = seg.seq;

  WalWriterOptions wal_options;
  wal_options.fsync = config.fsync;
  wal_options.fsync_interval_records = config.fsync_interval_records;
  wal_options.segment_bytes = config.segment_bytes;
  wal_options.file_factory = config.file_factory;
  WalWriter wal;
  if (!wal.open(config.dir, max_seq + 1, report.recovered_lsn,
                std::move(wal_options), error))
    return std::nullopt;

  MisService service(std::move(config), std::move(*engine), std::move(wal),
                     std::move(report));
  return service;
}

std::optional<MisService> MisService::adopt(ServiceConfig config,
                                            core::CascadeEngine engine,
                                            std::uint64_t lsn,
                                            std::uint64_t checkpoint_lsn,
                                            std::string* error) {
  if (!util::ensure_dir(config.dir, error)) return std::nullopt;

  // Same fresh-segment rule as open(): the promoted leader's first record
  // lands in segment max_seq + 1 based at the adopted lsn, which is what
  // orphans any shipped-but-unapplied dead tail (recovery's continuity
  // rule skips a tail whose successor segment starts at the same lsn).
  std::uint64_t max_seq = 0;
  for (const SegmentInfo& seg : list_segments(config.dir)) max_seq = seg.seq;

  WalWriterOptions wal_options;
  wal_options.fsync = config.fsync;
  wal_options.fsync_interval_records = config.fsync_interval_records;
  wal_options.segment_bytes = config.segment_bytes;
  wal_options.file_factory = config.file_factory;
  WalWriter wal;
  if (!wal.open(config.dir, max_seq + 1, lsn, std::move(wal_options), error))
    return std::nullopt;

  RecoveryReport report;
  report.recovered_lsn = lsn;
  report.checkpoint_lsn = checkpoint_lsn;
  report.detail = "adopted (follower promotion)";
  MisService service(std::move(config), std::move(engine), std::move(wal),
                     std::move(report));
  return service;
}

bool MisService::apply(const core::Batch& batch, std::string* error) {
  if (batch.empty()) return true;
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
  if (config_.checkpoint_interval_ops > 0 &&
      lsn_ - last_checkpoint_lsn_ >= config_.checkpoint_interval_ops)
    return checkpoint(error);
  return true;
}

bool MisService::sync(std::string* error) { return wal_.sync(error); }

bool MisService::checkpoint(std::string* error) {
  // Sync first so durable_lsn() is monotone through a checkpoint: the
  // snapshot makes ops ≤ lsn durable by itself, but the WAL behind it must
  // be complete before truncation may delete segments.
  if (!wal_.sync(error)) return false;
  if (!checkpointer_.checkpoint(engine_, lsn_, error)) return false;
  last_checkpoint_lsn_ = lsn_;
  return true;
}

bool MisService::close(std::string* error) { return wal_.close(error); }

}  // namespace dmis::service
