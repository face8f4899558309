// Checkpointer — periodic v4 engine snapshots that bound the WAL tail.
//
// A checkpoint at lsn L is a complete engine state (graph + priority keys
// + membership + RNG state — the greedy fixpoint property makes those
// sufficient, paper §3) equivalent to replaying ops [0, L). Once one is
// durable, every WAL record below L is redundant, so the checkpointer
// deletes the older checkpoints and the sealed segments wholly behind L:
// recovery time becomes O(state + ops since last checkpoint) instead of
// O(history), and disk usage stays proportional to state size.
//
// Crash ordering (the protocol docs/FORMATS.md specifies):
//   1. write checkpoint-<L>.snap via util::save_staged (temp + fsync +
//      rename) — a crash mid-save leaves only a stale .tmp, which the next
//      open or promote deletes (MisService::adopt), never a half checkpoint;
//   2. only after the rename, delete older checkpoints;
//   3. delete WAL segments whose successor's base_lsn ≤ L (every op they
//      hold is < that base_lsn ≤ L, hence inside the checkpoint). The
//      active segment is never deleted.
// A crash between any two steps leaves extra files, never missing state:
// recovery tries checkpoints newest-first and replays from what it picks.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine_snapshot.hpp"
#include "util/binary_io.hpp"  // kStagingSuffix

namespace dmis::service {

struct CheckpointInfo {
  std::uint64_t lsn = 0;
  std::string path;
};

[[nodiscard]] std::string checkpoint_path(const std::string& dir, std::uint64_t lsn);

/// Suffix of a checkpoint a follower is still receiving
/// (`checkpoint-<lsn>.snap.ship`, service/replication.hpp); it is renamed
/// to the checkpoint's own name once every byte has arrived.
inline constexpr char kShipSuffix[] = ".ship";

/// The suffixes of checkpoint staging files, which nothing reads: a save a
/// crash interrupted (util::kStagingSuffix) and a partial shipment
/// (kShipSuffix). MisService::adopt deletes both.
inline constexpr std::string_view kCheckpointStagingSuffixes[] = {util::kStagingSuffix,
                                                                  kShipSuffix};

/// The `checkpoint-*.snap` files of `dir`, ascending by lsn (parsed from
/// the filename; contents are validated by whoever opens them), or with
/// `suffix` one of kCheckpointStagingSuffixes the staging files carrying it.
[[nodiscard]] std::vector<CheckpointInfo> list_checkpoints(const std::string& dir,
                                                           std::string_view suffix = {});

class Checkpointer {
 public:
  Checkpointer() = default;
  /// `file_factory` (empty = real files) routes the checkpoint temp file's
  /// writes/fsyncs through a test seam — util/fault_file.hpp budgets prove
  /// a failed publish leaves the previous checkpoint recoverable.
  explicit Checkpointer(std::string dir, util::FileFactory file_factory = {})
      : dir_(std::move(dir)), file_factory_(std::move(file_factory)) {}

  /// Publish a checkpoint of `engine` at `lsn` and truncate behind it.
  /// Failures during cleanup (step 2–3) are non-fatal — the checkpoint
  /// itself is already durable — but still reported as false.
  bool checkpoint(const core::CascadeEngine& engine, std::uint64_t lsn,
                  std::string* error);

  [[nodiscard]] std::uint64_t checkpoints_taken() const noexcept { return taken_; }
  /// Lifetime bytes of published checkpoint files (bench bookkeeping).
  [[nodiscard]] std::uint64_t checkpoint_bytes() const noexcept { return bytes_; }

  /// Steps 2–3 alone: delete checkpoints with lsn < `keep_lsn` and WAL
  /// segments wholly covered by `keep_lsn`.
  static bool truncate(const std::string& dir, std::uint64_t keep_lsn,
                       std::string* error);

 private:
  std::string dir_;
  util::FileFactory file_factory_;
  std::uint64_t taken_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace dmis::service
