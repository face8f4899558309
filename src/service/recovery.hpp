// RecoveryManager — rebuild a CascadeEngine from a service directory after
// a crash: newest valid checkpoint, warm start, WAL tail replay.
//
// The recovered engine is *differentially identical* to the pre-crash one
// at the recovered lsn: same graph, same membership, same priority keys,
// and — because the v2 snapshot persists the priority RNG state and warm
// start does not consume draws — the same draw stream for every future
// add-node. A recovered replica therefore behaves bit-for-bit like a
// process that never crashed, which is what lets it re-enter a protocol
// round without resynchronization (tests/test_kill9_recovery.cpp proves
// this against a never-crashed reference).
//
// Selection ladder:
//   1. checkpoints newest-first; each must open structurally and (by
//      default) pass the payload checksum. A corrupt newest checkpoint is
//      logged and the next one tried — a half-written file can only exist
//      as a .tmp (the save is atomic), but defense costs one checksum
//      pass.
//   2. warm-start from the chosen checkpoint (SnapshotLoad::kWarm — bulk
//      adoption, zero recompute); no checkpoint ⇒ fresh empty engine and
//      replay from lsn 0.
//   3. replay WAL records with lsn ≥ the checkpoint's, in segment order.
//      Replay applies through the same core::apply_batch path the live
//      service uses, so live and recovered engines make identical RNG
//      draws.
//
// Tail rules (where a crash can interrupt the log):
//   * a torn or unsealed end of segment k at lsn L continues into segment
//     k+1 iff k+1's base_lsn == L — that exact shape is what a previous
//     crash + recovery leaves behind (the old active segment keeps its
//     dead tail; the post-recovery writer opened a fresh segment at L);
//   * otherwise the log ends at L: later segments are unreachable and are
//     reported, the valid prefix is kept, torn_tail is set;
//   * a *gap* (a record or segment starting beyond the lsn replay needs
//     next) is a hard error — ops are missing and the recovered state
//     would be silently wrong. This cannot arise from crashes, only from
//     deleted files.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "service/wal.hpp"

namespace dmis::service {

/// Apply ops [from, end) of one WAL record through the same batch path the
/// live service uses (service/service.cpp). Identical code path ⇒
/// identical RNG draw order, so a recovered (or follower — replication.hpp)
/// engine's future add-node priorities match the live process draw for
/// draw. `batch`/`result` are caller-owned scratch, reused across records.
void replay_wal_record(core::CascadeEngine& engine, const WalRecordView& view,
                       std::size_t from, core::Batch& batch,
                       core::BatchResult& result);

struct RecoveryOptions {
  /// Priority seed for a cold start (no checkpoint). With a checkpoint the
  /// persisted seed + RNG state win — that is what makes future draws
  /// match the pre-crash process.
  std::uint64_t priority_seed = 42;
  /// Borrow the checkpoint graph in place (DynamicGraph::borrow over the
  /// mapped snapshot) instead of materializing heap copies. Borrowed
  /// recovery is O(header + keys/membership) before replay starts and is
  /// what keeps RTO flat as checkpoints outgrow RAM; false forces the
  /// classic materialized load (tests exercise both, differentially).
  bool borrow = true;
};

struct RecoveryReport {
  /// Lsn of the checkpoint recovery started from (0 = none found).
  std::uint64_t checkpoint_lsn = 0;
  std::string checkpoint_path;  ///< empty when cold-starting
  std::uint64_t checkpoints_rejected = 0;
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t replayed_ops = 0;
  /// Every op below this lsn is in the recovered engine.
  std::uint64_t recovered_lsn = 0;
  /// The log ended in a torn record / unreachable segment (normal after
  /// kill -9; the valid prefix was kept).
  bool torn_tail = false;
  /// Human log: rejected checkpoints, skipped files, tail diagnosis.
  std::string detail;
  // RTO breakdown (seconds): checkpoint open+verify; graph borrow or
  // materialized load; engine warm start (key/membership adoption); WAL
  // tail replay. load_s is the number the borrowed path collapses —
  // borrow is O(1) in graph size while a materialized load is O(n + m).
  double open_s = 0;
  double load_s = 0;
  double warm_s = 0;
  double replay_s = 0;
  /// The recovered engine's graph borrows the checkpoint mapping (set iff
  /// a checkpoint was used and options.borrow was true).
  bool borrowed = false;
};

class RecoveryManager {
 public:
  explicit RecoveryManager(std::string dir, RecoveryOptions options = {})
      : dir_(std::move(dir)), options_(options) {}

  /// Recover an engine from the directory. Returns nullopt (with *error)
  /// only on hard failures — unreadable directory, every checkpoint
  /// corrupt AND the WAL not replayable from lsn 0, or a gap; torn tails
  /// are tolerated and reported through `report`.
  std::optional<core::CascadeEngine> recover(RecoveryReport* report,
                                             std::string* error);

 private:
  std::string dir_;
  RecoveryOptions options_;
};

}  // namespace dmis::service
