// Shared plumbing for the binary on-disk formats (graph snapshot, topology
// trace — docs/FORMATS.md): 8-byte section alignment, the FNV-1a payload
// checksum, and the one writer of every file this library publishes:
// capture_staged lays the file out in memory on the caller's thread, and
// publish_staged checksums and publishes it from any thread. Both formats
// are a fixed header whose payload_checksum covers the payload behind it,
// so one implementation keeps the padding, checksum-coverage and publish
// rules from drifting between them.
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

/// The payload sink: writes into a buffer that holds the whole file, the
/// payload starting at `header_bytes`, with section starts zero-padded to
/// 8 bytes (pad bytes are part of the checksummed payload).
class ImageWriter {
 public:
  ImageWriter(std::uint8_t* file, std::uint64_t header_bytes, std::uint64_t file_size)
      : file_(file), position_(header_bytes), file_size_(file_size) {}

  void write(const void* data, std::size_t bytes) {
    DMIS_ASSERT_MSG(bytes <= file_size_ - position_,
                    "payload runs past the header's file_size");
    if (bytes > 0) std::memcpy(file_ + position_, data, bytes);
    position_ += bytes;
  }

  /// Zero-pad so the next section starts 8-byte aligned.
  void align8() {
    static constexpr std::uint8_t zeros[8] = {};
    write(zeros, static_cast<std::size_t>(pad8(position_) - position_));
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

/// Capture `header` + payload in memory: `emit(sink)` streams the payload
/// once, into an ImageWriter over a fresh header.file_size buffer. No I/O
/// and no checksum: publish_staged does both, on whichever thread owns the
/// image by then. The image is the size of the file it will become.
template <class Header, class EmitPayload>
StagedImage<Header> capture_staged(const Header& header, const EmitPayload& emit) {
  StagedImage<Header> image{header, std::make_unique_for_overwrite<std::uint8_t[]>(
                                        static_cast<std::size_t>(header.file_size))};
  ImageWriter sink(image.bytes.get(), sizeof(Header), header.file_size);
  emit(sink);
  DMIS_ASSERT_MSG(sink.position() == header.file_size,
                  "payload does not end at the header's file_size");
  return image;
}

/// Publish a captured image at `path`: checksum the payload into the
/// header, write the whole file to `<path>.tmp` (open_staging, through
/// `factory`) and commit_staged it. On any failure the file already at
/// `path` is untouched, no staging file survives, and *error names the
/// staging path and the syscall.
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
