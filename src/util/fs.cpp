#include "util/fs.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "util/binary_io.hpp"  // set_error

#if defined(__unix__) || defined(__APPLE__)
#define DMIS_HAVE_POSIX_FS 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace dmis::util {

std::string errno_context(const std::string& path, const char* syscall, int err) {
  return path + ": " + syscall + ": " + std::strerror(err) + " (errno " +
         std::to_string(err) + ")";
}

void fsync_parent_dir(const std::string& path) {
#if defined(DMIS_HAVE_POSIX_FS)
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)::fsync(fd);  // EINVAL/EROFS on some filesystems — best effort
  ::close(fd);
#else
  (void)path;
#endif
}

bool atomic_publish(const std::string& tmp_path, const std::string& final_path,
                    std::string* error) {
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    set_error(error, errno_context(tmp_path + " -> " + final_path, "rename", errno));
    return false;
  }
  fsync_parent_dir(final_path);
  return true;
}

bool ensure_dir(const std::string& dir, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    set_error(error, dir + ": create_directories: " + ec.message());
    return false;
  }
  if (!std::filesystem::is_directory(dir, ec)) {
    set_error(error, dir + ": not a directory");
    return false;
  }
  return true;
}

bool remove_file(const std::string& path, std::string* error) {
  if (std::remove(path.c_str()) != 0) {
    set_error(error, errno_context(path, "unlink", errno));
    return false;
  }
  return true;
}

}  // namespace dmis::util
