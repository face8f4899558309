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
//   1. the caller fsyncs the WAL through L;
//   2. capture: copy the engine into an in-memory v4 image
//      (core::capture_snapshot), on the caller's thread — the only step
//      that reads the engine;
//   3. publish checkpoint-<L>.snap from the image via util::publish_staged
//      (checksum, temp write, fsync, rename) — a crash mid-publish leaves
//      only a stale .tmp, which the next open or promote deletes
//      (MisService::adopt), never a half checkpoint;
//   4. only after the rename, delete older checkpoints;
//   5. delete WAL segments whose successor's base_lsn ≤ L (every op they
//      hold is < that base_lsn ≤ L, hence inside the checkpoint). The
//      active segment is never deleted.
// A crash between any two steps leaves extra files, never missing state:
// recovery tries checkpoints newest-first and replays from what it picks.
//
// checkpoint() runs steps 2–5 on the caller's thread.
// checkpoint_in_background() runs step 2 there and hands the image to one
// publisher thread for steps 3–5, so the serving thread pays the capture
// alone (MisService's auto-checkpoints). At most one publish is in flight;
// finish() reaps it and reports its failure exactly once.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
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
  /// `last_lsn` is the lsn of the newest checkpoint already in `dir`.
  explicit Checkpointer(std::string dir, util::FileFactory file_factory = {},
                        std::uint64_t last_lsn = 0)
      : dir_(std::move(dir)),
        file_factory_(std::move(file_factory)),
        last_lsn_(last_lsn) {}

  /// Capture `engine` at `lsn`, publish it and truncate behind it, all on
  /// this thread, once the publish in flight (if any) has finished — when
  /// that one failed, report its failure instead. Failures during cleanup
  /// (steps 4–5) are non-fatal — the checkpoint itself is already durable —
  /// but still reported as false.
  bool checkpoint(const core::CascadeEngine& engine, std::uint64_t lsn,
                  std::string* error);

  /// Capture `engine` at `lsn` on this thread; a publisher thread then
  /// publishes, truncates and frees the image. No publish may be in flight
  /// (finish(true) first). A publisher thread that cannot start is a failed
  /// publish like any other.
  void checkpoint_in_background(const core::CascadeEngine& engine, std::uint64_t lsn);

  /// Reap the publish in flight: once it has finished, or — `block` — after
  /// waiting for it. False, with its error naming the path and syscall,
  /// exactly once for a failed publish; true otherwise.
  bool finish(bool block, std::string* error);

  /// Lsn of the newest checkpoint captured whose publish has not failed.
  /// This, checkpoints_taken() and checkpoint_bytes() advance at capture,
  /// whatever the publisher's timing, and a failed publish rolls them back,
  /// so the next checkpoint is due at once.
  [[nodiscard]] std::uint64_t last_lsn() const noexcept { return last_lsn_; }
  [[nodiscard]] std::uint64_t checkpoints_taken() const noexcept { return taken_; }
  /// Lifetime bytes of checkpoint files, from the captured headers.
  [[nodiscard]] std::uint64_t checkpoint_bytes() const noexcept { return bytes_; }

  /// Steps 4–5 alone: delete checkpoints with lsn < `keep_lsn` and WAL
  /// segments wholly covered by `keep_lsn`.
  static bool truncate(const std::string& dir, std::uint64_t keep_lsn,
                       std::string* error);

 private:
  /// One capture's publish. The consumer sets the first three fields before
  /// the publisher starts; the publisher sets the next three, then `done`.
  /// The consumer reads them only after seeing `done` and joining. The
  /// publisher holds its address, so it neither copies nor moves.
  struct Publish {
    Publish() = default;
    Publish(const Publish&) = delete;
    Publish& operator=(const Publish&) = delete;
    ~Publish() {
      if (thread.joinable()) thread.join();
    }

    std::uint64_t lsn = 0;
    std::uint64_t bytes = 0;          // the image's file_size
    std::uint64_t previous_lsn = 0;   // last_lsn_ before the capture
    bool published = false;           // checkpoint-<lsn>.snap is durable
    bool ok = false;                  // and the truncation behind it succeeded
    std::string error;
    std::atomic<bool> done{false};
    std::thread thread;               // not joinable for an inline publish
  };

  /// Step 2, then steps 3–5 here or on a publisher thread.
  void start(const core::CascadeEngine& engine, std::uint64_t lsn, bool background);
  /// Steps 3–5 on a captured image, on whichever thread owns it. Records
  /// every failure in `p`, exceptions included, and never throws.
  static void publish(graph::SnapshotImage image, const std::string& dir,
                      const util::FileFactory& factory, Publish& p);

  std::string dir_;
  util::FileFactory file_factory_;
  std::uint64_t last_lsn_ = 0;
  std::uint64_t taken_ = 0;
  std::uint64_t bytes_ = 0;
  /// The publish not yet reaped; heap-held, so moving the Checkpointer
  /// leaves the publisher thread's view of it in place.
  std::unique_ptr<Publish> publish_;
};

}  // namespace dmis::service
