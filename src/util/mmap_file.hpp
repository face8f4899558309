// MmapFile — RAII read-only file mapping with a scalar (read-into-buffer)
// fallback.
//
// The snapshot and trace formats (graph/snapshot.hpp, workload/trace_file.hpp)
// are designed to be consumed in place: open the file, validate the header,
// and hand out spans into the mapped bytes without copying anything. mmap(2)
// provides that on POSIX systems and additionally defers I/O to page faults,
// so opening a multi-gigabyte snapshot costs microseconds and only the pages
// actually touched are ever read. On platforms without mmap (or when the call
// fails — e.g. some network filesystems), the fallback reads the whole file
// into an owned buffer; every consumer sees the same data()/size() contract
// either way. -DDMIS_NO_MMAP forces the fallback at compile time, and the
// `force_read` argument forces it at runtime so tests exercise both paths on
// any host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dmis::util {

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile() { reset(); }

  MmapFile(MmapFile&& other) noexcept { *this = std::move(other); }
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Map (or read) `path`. Returns false and fills *error on failure; the
  /// object is left closed. `force_read` skips mmap and takes the owned-
  /// buffer path unconditionally.
  bool open(const std::string& path, std::string* error = nullptr,
            bool force_read = false);

  /// Unmap / free and return to the closed state.
  void reset() noexcept;

  [[nodiscard]] bool is_open() const noexcept { return open_; }
  /// True when data() points into an mmap'd region (zero-copy); false when
  /// it points at the owned fallback buffer.
  [[nodiscard]] bool is_mapped() const noexcept { return map_ != nullptr; }

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return map_ != nullptr ? static_cast<const std::uint8_t*>(map_) : buffer_.data();
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Bytes of the view currently resident in physical memory, via
  /// mincore(2) on the mapped path — what this process actually holds in
  /// RAM, as opposed to size(), which is what it *could* fault in. The
  /// fallback buffer is owned heap memory and reported as fully resident.
  /// Returns size() if the residency query itself fails (over-reporting is
  /// the safe direction for an operator sizing memory).
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

 private:
  void* map_ = nullptr;  // mmap base, or nullptr on the fallback path
  std::size_t size_ = 0;
  std::vector<std::uint8_t> buffer_;  // fallback storage (empty when mapped)
  bool open_ = false;
};

}  // namespace dmis::util
