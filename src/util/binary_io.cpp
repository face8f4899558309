#include "util/binary_io.hpp"

#include <algorithm>
#include <cstdio>

#include "util/fs.hpp"

namespace dmis::util {

bool StagingBuffer::flush() {
  if (ok_ && used_ > 0) ok_ = file_.write(block_.get(), used_, error_);
  flushed_ += used_;
  used_ = 0;
  return ok_;
}

bool StagingBuffer::spill(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (ok_ && bytes > 0) {
    const std::size_t take = std::min(bytes, kBlockBytes - used_);
    std::memcpy(block_.get() + used_, p, take);
    used_ += take;
    p += take;
    bytes -= take;
    if (used_ == kBlockBytes) flush();
  }
  return ok_;
}

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
