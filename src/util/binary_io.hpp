// Shared plumbing for the binary on-disk formats (graph snapshot, topology
// trace — docs/FORMATS.md): 8-byte section alignment, the FNV-1a payload
// checksum, and the two writers of every file this library publishes:
// save_staged streams a payload twice (v1 graph snapshots, traces), and
// capture_staged + publish_staged take an engine snapshot into memory on
// the caller's thread and publish it from any thread. Both formats are a
// fixed header whose payload_checksum covers the payload behind it, so one
// implementation keeps the padding, checksum-coverage and publish rules
// from drifting between them.
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

/// Capture sink: PayloadHasher's interface over a buffer that holds the
/// whole file, the payload starting at `header_bytes`.
class ImageWriter {
 public:
  ImageWriter(std::uint8_t* file, std::uint64_t header_bytes, std::uint64_t file_size)
      : file_(file), position_(header_bytes), file_size_(file_size) {}

  bool write(const void* data, std::size_t bytes) {
    DMIS_ASSERT_MSG(bytes <= file_size_ - position_,
                    "payload runs past the header's file_size");
    if (bytes > 0) std::memcpy(file_ + position_, data, bytes);
    position_ += bytes;
    return true;
  }

  bool align8() {
    static constexpr std::uint8_t zeros[8] = {};
    return write(zeros, static_cast<std::size_t>(pad8(position_) - position_));
  }

  [[nodiscard]] std::uint64_t position() const noexcept { return position_; }

 private:
  std::uint8_t* file_;
  std::uint64_t position_;
  std::uint64_t file_size_;
};

/// A file captured in memory for a later publish: `bytes` holds all
/// header.file_size bytes of it, the header's slot at the front left for
/// publish_staged, which fills in the payload checksum.
template <class Header>
struct StagedImage {
  Header header{};
  std::unique_ptr<std::uint8_t[]> bytes;
};

/// The commit step of every publish: fsync `staged`, close it, rename it
/// over `final_path` (util::atomic_publish). `written` = false means the
/// caller's writes failed and only the cleanup runs. On any failure the
/// staged file is removed, and *error names the path and the syscall.
bool commit_staged(WritableFile& staged, bool written, const std::string& final_path,
                   std::string* error);

/// `<path>.tmp`, opened fresh by `factory` (open_writable when empty).
std::unique_ptr<WritableFile> open_staging(const std::string& path,
                                           const FileFactory& factory,
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

  const std::unique_ptr<WritableFile> staged = open_staging(path, factory, error);
  if (staged == nullptr) return false;
  StagingBuffer sink(*staged, error);
  const bool written = sink.write(&header, sizeof(header)) && emit(sink) && sink.flush();
  return commit_staged(*staged, written, path, error);
}

/// Capture `header` + payload in memory: `emit(sink)` streams the payload
/// once, into an ImageWriter over a fresh header.file_size buffer. No I/O
/// and no checksum: publish_staged does both, on whichever thread owns the
/// image by then.
template <class Header, class EmitPayload>
StagedImage<Header> capture_staged(const Header& header, const EmitPayload& emit) {
  StagedImage<Header> image{header, std::make_unique_for_overwrite<std::uint8_t[]>(
                                        static_cast<std::size_t>(header.file_size))};
  ImageWriter sink(image.bytes.get(), sizeof(Header), header.file_size);
  (void)emit(sink);
  DMIS_ASSERT_MSG(sink.position() == header.file_size,
                  "payload does not end at the header's file_size");
  return image;
}

/// Publish a captured image at `path`: checksum the payload into the
/// header, write the whole file to `<path>.tmp` (open_staging) and
/// commit_staged it. The same failure contract as save_staged.
template <class Header>
bool publish_staged(const std::string& path, StagedImage<Header>& image,
                    const FileFactory& factory, std::string* error) {
  std::uint8_t* file = image.bytes.get();
  const auto size = static_cast<std::size_t>(image.header.file_size);
  image.header.payload_checksum = fnv1a64(file + sizeof(Header), size - sizeof(Header));
  std::memcpy(file, &image.header, sizeof(Header));
  const std::unique_ptr<WritableFile> staged = open_staging(path, factory, error);
  if (staged == nullptr) return false;
  const bool written = staged->write(file, size, error);
  return commit_staged(*staged, written, path, error);
}

}  // namespace dmis::util
