// LogReplayer — the one replay path. Recovery (RecoveryManager, below)
// and the log-shipping follower (service/replication.hpp) both rebuild a
// CascadeEngine from a directory the same way, and the result is
// *differentially identical* to the leader's engine at the same lsn: same
// graph, membership and priority keys, and — because an engine snapshot
// persists the priority RNG state and warm start draws nothing — the same
// draw stream for every future add-node. A recovered replica or promoted
// follower behaves bit-for-bit like a process that never crashed
// (tests/test_kill9_recovery.cpp, tests/test_replication.cpp).
//
// Checkpoint ladder (warm): checkpoints past the applied lsn, newest
// first; the first that opens, has engine state (v2+) and passes
// verify() (payload checksum, undirected CSR, greedy fixpoint) wins, each
// reject is logged. It is borrowed (graph reads the mapping in place) or
// loaded, then adopted with SnapshotLoad::kWarm — zero recompute. No
// checkpoint: cold, lsn 0.
//
// WAL chain (catch_up): open the segment holding the applied lsn (highest
// base_lsn ≤ lsn, ties to the higher seq) and apply every later record
// through replay_wal_record, the apply_batch path the live service uses,
// so replayed and live engines make identical RNG draws. At a segment's
// end, refresh() picks up growth (a follower tails live files); otherwise
// the one chain rule applies: a segment ending at lsn L — sealed, unsealed
// or torn — continues into the next segment by seq iff that segment's
// base_lsn == L, the shape a crash + reopen leaves (dead tail in the old
// segment, fresh segment at L). catch_up reports why it stopped:
//   * kNoSegment: nothing holds the applied lsn. With segments present
//     recovery calls it a *gap* (only deleted files cause one) and fails;
//   * kChainEnd: the newest segment is consumed;
//   * kUnreachable: the next segment does not continue the chain. The log
//     ends at L with its valid prefix kept (torn_tail); MisService::adopt
//     moves such segments aside when it starts writing at L.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "service/wal.hpp"

namespace dmis::service {

/// Apply ops [from, end) of one WAL record through the same batch path the
/// live service uses (service/service.cpp). Identical code path ⇒
/// identical RNG draw order, so a replayed engine's future add-node
/// priorities match the live process draw for draw. `batch`/`result` are
/// caller-owned scratch, reused across records.
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

/// The shared replay state (header comment): an engine, the lsn it has
/// applied up to, and the open WAL segment it is reading. Recovery drives
/// it once; a follower keeps one alive and calls catch_up per poll.
class LogReplayer {
 public:
  enum class Stop {
    kNoSegment,    ///< no segment holds applied_lsn()
    kChainEnd,     ///< the newest segment of the chain is consumed
    kUnreachable,  ///< the next segment by seq does not continue the chain
  };

  explicit LogReplayer(std::string dir) : dir_(std::move(dir)) {}

  /// Warm-start from the newest checkpoint past applied_lsn() (any, with no
  /// engine yet) that opens, has engine state and verifies; `borrow` maps
  /// its graph in place instead of loading it. Fills the checkpoint and
  /// open/load/warm fields of `report`. False if no checkpoint qualifies.
  bool warm(bool borrow, RecoveryReport& report);
  /// A fresh engine at lsn 0.
  void cold(std::uint64_t priority_seed);
  /// Apply the WAL chain from applied_lsn() as far as it goes. Counts and
  /// the tail diagnosis go to `report` (torn_tail if the log ends in a torn
  /// record). Needs an engine.
  Stop catch_up(RecoveryReport& report);

  [[nodiscard]] bool has_engine() const noexcept { return engine_.has_value(); }
  [[nodiscard]] const core::CascadeEngine& engine() const { return *engine_; }
  /// Hand the engine over (the replayer is then empty).
  core::CascadeEngine take_engine();
  /// Every op below this lsn is in the engine.
  [[nodiscard]] std::uint64_t applied_lsn() const noexcept { return applied_lsn_; }
  /// Lsn of the checkpoint last warmed from (0 = cold).
  [[nodiscard]] std::uint64_t checkpoint_lsn() const noexcept { return checkpoint_lsn_; }

  /// The segment of `segments` (ascending by seq) holding `lsn`: the
  /// highest base_lsn ≤ lsn, ties to the higher seq. nullptr if none.
  static const SegmentInfo* segment_holding(const std::vector<SegmentInfo>& segments,
                                            std::uint64_t lsn);

 private:
  void reset(std::uint64_t lsn);
  bool open_segment(const SegmentInfo& segment, RecoveryReport& report);

  std::string dir_;
  std::optional<core::CascadeEngine> engine_;
  std::uint64_t applied_lsn_ = 0;
  std::uint64_t checkpoint_lsn_ = 0;
  WalSegmentReader reader_;
  std::uint64_t reader_seq_ = 0;  // 0 = no segment open
  core::Batch batch_;             // replay scratch, reused across records
  core::BatchResult result_;      // replay scratch, reused across records
};

class RecoveryManager {
 public:
  explicit RecoveryManager(std::string dir, RecoveryOptions options = {})
      : dir_(std::move(dir)), options_(options) {}

  /// Recover an engine from the directory: LogReplayer warm (else cold),
  /// then one catch_up. Returns nullopt (with *error) only on a gap:
  /// segments exist but none holds the lsn replay starts at. Torn tails and
  /// unreachable segments are tolerated, kept prefix and all, and reported
  /// through `report`. Reads the directory, never writes it.
  std::optional<core::CascadeEngine> recover(RecoveryReport* report,
                                             std::string* error);

 private:
  std::string dir_;
  RecoveryOptions options_;
};

}  // namespace dmis::service
