#include "util/fault_file.hpp"

#include <utility>

#include "util/binary_io.hpp"  // set_error
#include "util/fs.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define DMIS_HAVE_POSIX_FS 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace dmis::util {

namespace {

#if defined(DMIS_HAVE_POSIX_FS)

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool write(const void* data, std::size_t bytes, std::string* error) override {
    const auto* p = static_cast<const std::uint8_t*>(data);
    while (bytes > 0) {
      const ::ssize_t got = ::write(fd_, p, bytes);
      if (got < 0) {
        if (errno == EINTR) continue;
        set_error(error, errno_context(path_, "write", errno));
        return false;
      }
      p += got;
      bytes -= static_cast<std::size_t>(got);
      written_ += static_cast<std::uint64_t>(got);
    }
    return true;
  }

  bool sync(std::string* error) override {
    if (::fsync(fd_) == 0) return true;
    set_error(error, errno_context(path_, "fsync", errno));
    return false;
  }

  bool close(std::string* error) override {
    if (fd_ < 0) return true;
    const int fd = std::exchange(fd_, -1);
    if (::close(fd) != 0) {
      set_error(error, errno_context(path_, "close", errno));
      return false;
    }
    return true;
  }

  [[nodiscard]] std::uint64_t bytes_written() const noexcept override {
    return written_;
  }
  [[nodiscard]] const std::string& path() const noexcept override { return path_; }

 private:
  int fd_;
  std::string path_;
  std::uint64_t written_ = 0;
};

#else

// Non-POSIX fallback: buffered stdio with no real durability (sync is a
// flush). Keeps the library compiling; the service layer documents that
// its crash guarantees are POSIX-only.
class StdioWritableFile final : public WritableFile {
 public:
  StdioWritableFile(std::FILE* f, std::string path) : f_(f), path_(std::move(path)) {}
  ~StdioWritableFile() override {
    if (f_ != nullptr) std::fclose(f_);
  }

  bool write(const void* data, std::size_t bytes, std::string* error) override {
    if (bytes == 0) return true;
    if (std::fwrite(data, 1, bytes, f_) != bytes) {
      set_error(error, errno_context(path_, "fwrite", errno));
      return false;
    }
    written_ += bytes;
    return true;
  }

  bool sync(std::string* error) override {
    if (std::fflush(f_) != 0) {
      set_error(error, errno_context(path_, "fflush", errno));
      return false;
    }
    return true;
  }

  bool close(std::string* error) override {
    if (f_ == nullptr) return true;
    std::FILE* f = std::exchange(f_, nullptr);
    if (std::fclose(f) != 0) {
      set_error(error, errno_context(path_, "fclose", errno));
      return false;
    }
    return true;
  }

  [[nodiscard]] std::uint64_t bytes_written() const noexcept override {
    return written_;
  }
  [[nodiscard]] const std::string& path() const noexcept override { return path_; }

 private:
  std::FILE* f_;
  std::string path_;
  std::uint64_t written_ = 0;
};

#endif

}  // namespace

std::unique_ptr<WritableFile> open_writable(const std::string& path,
                                            std::string* error) {
#if defined(DMIS_HAVE_POSIX_FS)
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    set_error(error, errno_context(path, "open", errno));
    return nullptr;
  }
  return std::make_unique<PosixWritableFile>(fd, path);
#else
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    set_error(error, errno_context(path, "fopen", errno));
    return nullptr;
  }
  return std::make_unique<StdioWritableFile>(f, path);
#endif
}

bool FaultFile::write(const void* data, std::size_t bytes, std::string* error) {
  if (tripped_) {
    set_error(error, errno_context(path(), "write", plan_.write_errno));
    return false;
  }
  if (bytes <= plan_.write_budget) {
    if (plan_.write_budget != FaultPlan::kUnlimited) plan_.write_budget -= bytes;
    return inner_->write(data, bytes, error);
  }
  // Budget exhausted mid-write: optionally land the allowed prefix (a torn
  // record — the on-disk state a crash mid-write leaves behind), then fail.
  tripped_ = true;
  if (plan_.short_write && plan_.write_budget > 0)
    (void)inner_->write(data, static_cast<std::size_t>(plan_.write_budget), nullptr);
  set_error(error, errno_context(path(), "write", plan_.write_errno));
  return false;
}

bool FaultFile::sync(std::string* error) {
  if (tripped_ || plan_.sync_budget == 0) {
    tripped_ = true;
    set_error(error, errno_context(path(), "fsync", plan_.sync_errno));
    return false;
  }
  if (plan_.sync_budget != FaultPlan::kUnlimited) --plan_.sync_budget;
  return inner_->sync(error);
}

std::unique_ptr<WritableFile> open_appendable(const std::string& path,
                                              std::string* error) {
#if defined(DMIS_HAVE_POSIX_FS)
  const int fd = ::open(path.c_str(), O_CREAT | O_APPEND | O_WRONLY, 0644);
  if (fd < 0) {
    set_error(error, errno_context(path, "open", errno));
    return nullptr;
  }
  return std::make_unique<PosixWritableFile>(fd, path);
#else
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    set_error(error, errno_context(path, "fopen", errno));
    return nullptr;
  }
  return std::make_unique<StdioWritableFile>(f, path);
#endif
}

FileFactory faulty_factory(FaultPlan plan, std::uint64_t nth, FileFactory base) {
  // Shared counter: the factory is copied into the WAL writer, but every
  // copy must agree on which file is the nth.
  auto opened = std::make_shared<std::uint64_t>(0);
  if (!base) base = open_writable;
  return [plan, nth, opened, base](
             const std::string& path,
             std::string* error) -> std::unique_ptr<WritableFile> {
    auto inner = base(path, error);
    if (inner == nullptr) return nullptr;
    if ((*opened)++ != nth) return inner;
    return std::make_unique<FaultFile>(std::move(inner), plan);
  };
}

}  // namespace dmis::util
