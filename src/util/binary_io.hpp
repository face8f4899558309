// Shared plumbing for the binary on-disk formats (graph snapshot, topology
// trace — docs/FORMATS.md): 8-byte section alignment, the FNV-1a payload
// checksum, and save_staged, the one writer of every file this library
// publishes. Both formats are a fixed header whose payload_checksum covers
// the payload behind it, so one implementation keeps the padding,
// checksum-coverage and publish rules from drifting between them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "util/assert.hpp"
#include "util/fault_file.hpp"

namespace dmis::util {

inline constexpr std::uint64_t kFnv1aSeed = 0xcbf29ce484222325ULL;

/// FNV-1a 64 — the payload checksum of both binary formats.
[[nodiscard]] inline std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size,
                                           std::uint64_t seed = kFnv1aSeed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] constexpr std::uint64_t pad8(std::uint64_t off) noexcept {
  return (off + 7) & ~static_cast<std::uint64_t>(7);
}

inline void set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

/// A save writes `<path>.tmp` and renames it over `path`; a crash mid-save
/// leaves the `.tmp` behind and nothing else.
inline constexpr char kStagingSuffix[] = ".tmp";

/// Pass-1 payload sink: the checksum of everything written, with section
/// starts zero-padded to 8 bytes (pad bytes are part of the checksummed
/// payload). `header_bytes` is the file offset where the payload begins.
class PayloadHasher {
 public:
  explicit PayloadHasher(std::uint64_t header_bytes) : header_bytes_(header_bytes) {}

  bool write(const void* data, std::size_t bytes) {
    hash_ = fnv1a64(static_cast<const std::uint8_t*>(data), bytes, hash_);
    written_ += bytes;
    return true;
  }

  /// Zero-pad so the next section starts 8-byte aligned.
  bool align8() {
    static constexpr std::uint8_t zeros[8] = {};
    const std::uint64_t target = pad8(position());
    return write(zeros, static_cast<std::size_t>(target - position()));
  }

  [[nodiscard]] std::uint64_t position() const noexcept {
    return header_bytes_ + written_;
  }
  [[nodiscard]] std::uint64_t checksum() const noexcept { return hash_; }

 private:
  std::uint64_t header_bytes_;
  std::uint64_t written_ = 0;
  std::uint64_t hash_ = kFnv1aSeed;
};

/// Pass-2 sink: PayloadHasher's interface over a WritableFile, which gets
/// one write per full 1 MiB block. A failed write is sticky: every later
/// call returns false, and *error keeps the first failure.
class StagingBuffer {
 public:
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

  StagingBuffer(WritableFile& file, std::string* error) : file_(file), error_(error) {}

  bool write(const void* data, std::size_t bytes) {
    if (!ok_ || bytes > kBlockBytes - used_) return spill(data, bytes);
    if (bytes > 0) std::memcpy(block_.get() + used_, data, bytes);
    used_ += bytes;
    return true;
  }

  bool align8() {
    static constexpr std::uint8_t zeros[8] = {};
    const std::uint64_t target = pad8(position());
    return write(zeros, static_cast<std::size_t>(target - position()));
  }

  bool flush();

  [[nodiscard]] std::uint64_t position() const noexcept { return flushed_ + used_; }

 private:
  bool spill(const void* data, std::size_t bytes);

  WritableFile& file_;
  std::string* error_;
  std::unique_ptr<std::uint8_t[]> block_ =
      std::make_unique_for_overwrite<std::uint8_t[]>(kBlockBytes);
  std::size_t used_ = 0;
  std::uint64_t flushed_ = 0;
  bool ok_ = true;
};

/// The commit step of every publish: fsync `staged`, close it, rename it
/// over `final_path` (util::atomic_publish). `written` = false means the
/// caller's writes failed and only the cleanup runs. On any failure the
/// staged file is removed, and *error names the path and the syscall.
bool commit_staged(WritableFile& staged, bool written, const std::string& final_path,
                   std::string* error);

/// Publish `header` + payload at `path` in two passes: `emit(sink)` streams
/// the payload into a PayloadHasher, which fills in
/// header.payload_checksum, then header and payload go through a
/// StagingBuffer into `<path>.tmp`, opened by `factory` (open_writable when
/// empty), and commit_staged publishes it. `emit` must write the same bytes
/// both times and return false on a failed write.
template <class Header, class EmitPayload>
bool save_staged(const std::string& path, Header header, const EmitPayload& emit,
                 const FileFactory& factory, std::string* error) {
  PayloadHasher hasher(sizeof(Header));
  (void)emit(hasher);
  DMIS_ASSERT_MSG(hasher.position() == header.file_size,
                  "payload does not end at the header's file_size");
  header.payload_checksum = hasher.checksum();

  const std::string tmp = path + kStagingSuffix;
  const std::unique_ptr<WritableFile> staged =
      factory ? factory(tmp, error) : open_writable(tmp, error);
  if (staged == nullptr) return false;
  StagingBuffer sink(*staged, error);
  const bool written = sink.write(&header, sizeof(header)) && emit(sink) && sink.flush();
  return commit_staged(*staged, written, path, error);
}

}  // namespace dmis::util
