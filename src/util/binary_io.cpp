#include "util/binary_io.hpp"

#include <cstdio>

#include "util/fs.hpp"

namespace dmis::util {

std::unique_ptr<WritableFile> open_staging(const std::string& path,
                                           const FileFactory& factory,
                                           std::string* error) {
  const std::string tmp = path + kStagingSuffix;
  return factory ? factory(tmp, error) : open_writable(tmp, error);
}

bool commit_staged(WritableFile& staged, bool written, const std::string& final_path,
                   std::string* error) {
  // Durability before visibility: the staged bytes are on disk before the
  // rename makes them the published file.
  bool ok = written && staged.sync(error);
  ok = staged.close(ok ? error : nullptr) && ok;
  ok = ok && atomic_publish(staged.path(), final_path, error);
  if (!ok) std::remove(staged.path().c_str());
  return ok;
}

}  // namespace dmis::util
