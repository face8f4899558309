#include "util/mmap_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "util/binary_io.hpp"  // set_error
#include "util/fs.hpp"         // errno_context

#if !defined(DMIS_NO_MMAP) && (defined(__unix__) || defined(__APPLE__))
#define DMIS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace dmis::util {

namespace {

bool read_whole_file(const std::string& path, std::vector<std::uint8_t>& out,
                     std::string* error) {
  // Size via the filesystem, not long ftell — this is the only path on
  // platforms without mmap, and a 32-bit long would cap it at 2 GiB.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    set_error(error, path + ": file_size: " + ec.message() + " (code " +
                         std::to_string(ec.value()) + ")");
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    set_error(error, errno_context(path, "fopen", errno));
    return false;
  }
  out.resize(static_cast<std::size_t>(size));
  const std::size_t got = out.empty() ? 0 : std::fread(out.data(), 1, out.size(), f);
  const int read_errno = errno;
  std::fclose(f);
  if (got != out.size()) {
    set_error(error, path + ": fread: short read (" + std::to_string(got) + " of " +
                         std::to_string(out.size()) + " bytes, " +
                         std::strerror(read_errno) + ")");
    return false;
  }
  return true;
}

}  // namespace

std::size_t MmapFile::resident_bytes() const noexcept {
#if defined(DMIS_HAVE_MMAP)
  if (map_ != nullptr && size_ > 0) {
    const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t pages = (size_ + page - 1) / page;
    // mincore wants one byte per page; a vector here is fine — this is an
    // observability call (stats/bench), never a hot path.
    std::vector<unsigned char> vec(pages);
#if defined(__linux__)
    if (::mincore(map_, size_, vec.data()) != 0) return size_;
#else
    if (::mincore(map_, size_, reinterpret_cast<char*>(vec.data())) != 0) return size_;
#endif
    std::size_t resident_pages = 0;
    for (const unsigned char b : vec) resident_pages += b & 1U;
    const std::size_t bytes = resident_pages * page;
    return bytes < size_ ? bytes : size_;
  }
#endif
  return buffer_.size();  // owned fallback buffer: fully resident
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    reset();
    map_ = std::exchange(other.map_, nullptr);
    size_ = std::exchange(other.size_, 0);
    buffer_ = std::move(other.buffer_);
    other.buffer_.clear();
    open_ = std::exchange(other.open_, false);
  }
  return *this;
}

void MmapFile::reset() noexcept {
#if defined(DMIS_HAVE_MMAP)
  if (map_ != nullptr) ::munmap(map_, size_);
#endif
  map_ = nullptr;
  size_ = 0;
  buffer_.clear();
  buffer_.shrink_to_fit();
  open_ = false;
}

bool MmapFile::open(const std::string& path, std::string* error, bool force_read) {
  reset();
#if defined(DMIS_HAVE_MMAP)
  if (!force_read) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      set_error(error, errno_context(path, "open", errno));
      return false;
    }
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      set_error(error, errno_context(path, "fstat", errno));
      ::close(fd);
      return false;
    }
    if (!S_ISREG(st.st_mode)) {
      set_error(error, path + ": fstat: not a regular file");
      ::close(fd);
      return false;
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ > 0) {
      void* base = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base == MAP_FAILED) {
        // mmap can fail on exotic filesystems; degrade to the read path.
        ::close(fd);
        size_ = 0;
        if (!read_whole_file(path, buffer_, error)) return false;
        size_ = buffer_.size();
        open_ = true;
        return true;
      }
      map_ = base;
    }
    ::close(fd);
    open_ = true;
    return true;
  }
#else
  (void)force_read;
#endif
  if (!read_whole_file(path, buffer_, error)) return false;
  size_ = buffer_.size();
  open_ = true;
  return true;
}

}  // namespace dmis::util
