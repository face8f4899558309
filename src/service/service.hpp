// MisService — the crash-safe dynamic-MIS process: CascadeEngine + WAL +
// checkpointer + recovery, composed behind one apply() call.
//
// This is the serving shape the ROADMAP's first open item names (WAL +
// snapshot log-shipping with measured recovery), and it closes the loop
// the durability PRs opened: an engine snapshot is a complete checkpoint,
// the WAL is the op stream between checkpoints, and opening a service
// directory *is* recovery — there is no separate "clean open" path whose
// bugs only surface after a crash.
//
// Ingest protocol per apply(batch):
//   1. append the batch to the WAL (one record, or one per op under
//      kEveryOp) and fsync per policy — durability first;
//   2. apply the batch to the engine (single-cascade batch repair,
//      core/batch.hpp);
//   3. every checkpoint_interval_ops ops: fsync the WAL and capture the
//      engine as an in-memory v4 image; a publisher thread then writes,
//      syncs and renames the checkpoint and truncates behind it
//      (service/checkpoint.hpp). At most one publish is in flight: a
//      checkpoint that comes due during one waits for it.
// apply() returning true is the ack: under kEveryOp / kEveryBatch the
// batch is then durable; under kInterval it is durable within
// fsync_interval_records records (durable_lsn() says exactly).
//
// A failed background publish is reported exactly once, as false, by the
// first of: the next apply() (before its batch is logged, so the lsn does
// not move), sync(), checkpoint() or close(). The previous checkpoint and
// the WAL behind it stay intact, last_checkpoint_lsn() falls back to that
// checkpoint, and the next auto-checkpoint is due at once.
//
// Steady state allocates nothing: the WAL serialization buffer, the batch
// result, and every engine scratch reuse owned capacity; only segment
// rotation and checkpoints (both amortized by configuration) touch the
// allocator or the filesystem namespace. tests/test_service_alloc.cpp
// enforces this with the operator-new counter.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "service/checkpoint.hpp"
#include "service/recovery.hpp"
#include "service/wal.hpp"

namespace dmis::service {

struct ServiceConfig {
  std::string dir;
  /// Cold-start seed (ignored once a checkpoint exists — the persisted
  /// seed + RNG state win so draw streams continue across crashes).
  std::uint64_t priority_seed = 42;
  FsyncPolicy fsync = FsyncPolicy::kEveryBatch;
  std::uint64_t fsync_interval_records = 64;
  std::uint64_t segment_bytes = 64ULL << 20;
  /// Checkpoint every this many ops; 0 = only explicit checkpoint() calls.
  std::uint64_t checkpoint_interval_ops = 0;
  /// Open the recovery checkpoint borrowed (graph reads the mapping in
  /// place — O(header + keys) restart, resident set stays small); false
  /// forces the classic materialized load. See RecoveryOptions::borrow.
  bool borrow = true;
  /// Fault injection for tests; empty = real files. Applies to WAL
  /// segment files only.
  util::FileFactory file_factory;
  /// Separate seam for checkpoint temp files, so a WAL fault schedule's
  /// shared nth-file counter is not perturbed by checkpoint opens (and
  /// vice versa). An auto-checkpoint calls it on the publisher thread.
  util::FileFactory checkpoint_file_factory;
};

class MisService {
 public:
  /// Open (= recover) a service directory, creating it if absent:
  /// RecoveryManager::recover, then adopt() of the recovered engine. The
  /// recovery report of this open is kept (recovery()).
  static std::optional<MisService> open(ServiceConfig config, std::string* error);

  /// Serve an engine that is *already* at report.recovered_lsn — recovered
  /// by open(), or a caught-up follower at failover
  /// (service/replication.hpp) — without replaying anything. Opens a fresh
  /// WAL segment after the highest existing seq in config.dir, based at
  /// that lsn: the "seal, re-base, keep serving" shape. A dead tail past the
  /// lsn in the old last segment is orphaned by the new segment's base_lsn;
  /// whole segments that start past it hold a history the new segment
  /// supersedes and are renamed to `wal-<seq>.seg.unreachable`, which
  /// list_segments skips, so the directory keeps one chain. Checkpoint
  /// staging files — interrupted saves (`checkpoint-*.snap.tmp`) and
  /// partial shipments (`checkpoint-*.snap.ship`) — are deleted.
  /// report.checkpoint_lsn seeds last_checkpoint_lsn(); the report, plus a
  /// line per moved segment and per deleted staging file, becomes
  /// recovery().
  static std::optional<MisService> adopt(ServiceConfig config,
                                         core::CascadeEngine engine,
                                         RecoveryReport report, std::string* error);

  MisService(MisService&&) = default;
  MisService& operator=(MisService&&) = default;

  /// Log, sync (per policy), apply, maybe start a checkpoint. False on I/O
  /// failure — the engine then still matches the durable log prefix, but
  /// the service must be reopened (recovered) before further writes — or
  /// when it reports a failed background publish (header comment), which
  /// leaves the service serving.
  bool apply(const core::Batch& batch, std::string* error);

  /// Wait for the checkpoint publish in flight, then fsync the WAL
  /// (advances durable_lsn to lsn): afterwards every checkpoint taken so
  /// far is on disk, or its failure has been reported here.
  bool sync(std::string* error);

  /// Snapshot the engine at the current lsn and truncate the WAL, on this
  /// thread, after the publish in flight.
  bool checkpoint(std::string* error);

  /// Wait for the publish in flight, then seal the active segment and
  /// close the WAL. Further apply() calls fail; the directory reopens
  /// cleanly. The destructor also waits for the publish.
  bool close(std::string* error);

  [[nodiscard]] const core::CascadeEngine& engine() const noexcept { return engine_; }
  /// Ops applied to the engine since lsn 0 (across restarts).
  [[nodiscard]] std::uint64_t lsn() const noexcept { return lsn_; }
  /// Ops guaranteed on disk (WAL fsync or checkpoint).
  [[nodiscard]] std::uint64_t durable_lsn() const noexcept {
    return wal_.durable_lsn();
  }
  /// Lsn of the newest checkpoint captured whose publish has not failed
  /// (it may still be in flight: sync() waits for it).
  [[nodiscard]] std::uint64_t last_checkpoint_lsn() const noexcept {
    return checkpointer_.last_lsn();
  }
  /// Report of the last apply()'s batch repair.
  [[nodiscard]] const core::BatchResult& last_result() const noexcept {
    return result_;
  }
  /// How this service came up (checkpoint used, ops replayed, RTO parts).
  [[nodiscard]] const RecoveryReport& recovery() const noexcept { return recovery_; }
  [[nodiscard]] std::uint64_t wal_bytes_appended() const noexcept {
    return wal_.bytes_appended();
  }
  /// Active WAL segment seq + its fsync-covered byte watermark: the durable
  /// cursor a LogShipper caps live shipping at (service/replication.hpp).
  [[nodiscard]] std::uint64_t wal_segment_seq() const noexcept {
    return wal_.segment_seq();
  }
  [[nodiscard]] std::uint64_t wal_durable_segment_bytes() const noexcept {
    return wal_.durable_segment_bytes();
  }
  [[nodiscard]] std::uint64_t checkpoints_taken() const noexcept {
    return checkpointer_.checkpoints_taken();
  }
  [[nodiscard]] std::uint64_t checkpoint_bytes() const noexcept {
    return checkpointer_.checkpoint_bytes();
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

 private:
  MisService(ServiceConfig config, core::CascadeEngine engine, WalWriter wal,
             RecoveryReport recovery)
      : config_(std::move(config)),
        engine_(std::move(engine)),
        wal_(std::move(wal)),
        checkpointer_(config_.dir, config_.checkpoint_file_factory,
                      recovery.checkpoint_lsn),
        recovery_(std::move(recovery)),
        lsn_(recovery_.recovered_lsn) {}

  ServiceConfig config_;
  core::CascadeEngine engine_;
  WalWriter wal_;
  Checkpointer checkpointer_;
  RecoveryReport recovery_;
  core::BatchResult result_;  // reused per apply
  std::uint64_t lsn_ = 0;
};

}  // namespace dmis::service
