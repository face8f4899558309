// WritableFile — the narrow write/sync seam every byte the library persists
// goes through (WAL segments, shipped files, and every snapshot, checkpoint
// and trace via util::save_staged or util::publish_staged), with a
// fault-injecting wrapper so crash-safety is proven by tests, not claimed.
//
// The durability logic in service/wal.cpp is exactly the code that must be
// right when the disk misbehaves, and the misbehaviors that matter (short
// write at an arbitrary byte, ENOSPC mid-record, an fsync that returns
// EIO) cannot be provoked on demand through a real filesystem. FaultFile
// wraps any WritableFile and fails on a precise schedule — "accept 137
// more bytes, then short-write and return ENOSPC", "fail the 3rd fsync" —
// so tests can place a torn record at every interesting boundary and check
// that the reader keeps the valid prefix. Production code pays one virtual
// call per record append, which is noise next to the write syscall behind
// it.
//
// Failure model (matches the post-fsyncgate consensus): once a write or
// sync has failed, the file is poisoned — every later call fails too. A
// failed fsync gives no information about which earlier bytes reached the
// disk, so retrying it and continuing would silently drop the durability
// guarantee; the owner must treat the log as broken and recover.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace dmis::util {

class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Append `bytes` at the current position. False (with *error) on
  /// failure; bytes_written() then reflects how much the file accepted.
  virtual bool write(const void* data, std::size_t bytes, std::string* error) = 0;

  /// Make everything written so far durable.
  virtual bool sync(std::string* error) = 0;

  /// Close the descriptor; idempotent. Does NOT sync.
  virtual bool close(std::string* error) = 0;

  [[nodiscard]] virtual std::uint64_t bytes_written() const noexcept = 0;
  [[nodiscard]] virtual const std::string& path() const noexcept = 0;
};

/// Open `path` fresh for writing (created or truncated). Returns null with
/// *error on failure.
std::unique_ptr<WritableFile> open_writable(const std::string& path,
                                            std::string* error);

/// Open `path` for appending, keeping existing contents (created empty if
/// absent). bytes_written() counts only bytes written through this handle,
/// not the pre-existing size. The follower side of log shipping lives on
/// this: a restarted follower must extend its partially shipped files, and
/// open_writable would truncate them.
std::unique_ptr<WritableFile> open_appendable(const std::string& path,
                                              std::string* error);

/// How tests make writable files: defaults to open_writable; fault tests
/// substitute a factory that wraps the result in a FaultFile.
using FileFactory = std::function<std::unique_ptr<WritableFile>(
    const std::string& path, std::string* error)>;

/// Deterministic failure schedule for a FaultFile.
struct FaultPlan {
  static constexpr std::uint64_t kUnlimited = ~static_cast<std::uint64_t>(0);

  /// Bytes accepted before writes start failing (simulates a disk that
  /// fills at an exact byte).
  std::uint64_t write_budget = kUnlimited;
  /// Deliver the in-budget prefix of the failing write (torn record on
  /// disk) instead of dropping the whole write.
  bool short_write = true;
  int write_errno = ENOSPC;

  /// Successful syncs before sync starts failing.
  std::uint64_t sync_budget = kUnlimited;
  int sync_errno = EIO;
};

/// WritableFile decorator executing a FaultPlan against an inner file.
class FaultFile final : public WritableFile {
 public:
  FaultFile(std::unique_ptr<WritableFile> inner, FaultPlan plan)
      : inner_(std::move(inner)), plan_(plan) {}

  bool write(const void* data, std::size_t bytes, std::string* error) override;
  bool sync(std::string* error) override;
  bool close(std::string* error) override { return inner_->close(error); }

  [[nodiscard]] std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }
  [[nodiscard]] const std::string& path() const noexcept override {
    return inner_->path();
  }

  [[nodiscard]] bool tripped() const noexcept { return tripped_; }

 private:
  std::unique_ptr<WritableFile> inner_;
  FaultPlan plan_;
  bool tripped_ = false;  // a failure happened; everything fails from now on
};

/// Convenience factory: open through `base` (defaults to open_writable)
/// and apply `plan` to the `nth` file opened (0-based), passing others
/// through untouched. The returned factory shares a counter, so one
/// instance injects into exactly one file of a multi-segment log.
FileFactory faulty_factory(FaultPlan plan, std::uint64_t nth = 0,
                           FileFactory base = {});

}  // namespace dmis::util
