#include "service/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "service/wal.hpp"
#include "util/assert.hpp"
#include "util/fs.hpp"

namespace dmis::service {

std::string checkpoint_path(const std::string& dir, std::uint64_t lsn) {
  char name[48];
  std::snprintf(name, sizeof(name), "checkpoint-%020" PRIu64 ".snap", lsn);
  return dir + "/" + name;
}

std::vector<CheckpointInfo> list_checkpoints(const std::string& dir,
                                             std::string_view suffix) {
  std::vector<CheckpointInfo> checkpoints;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    std::uint64_t lsn = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "checkpoint-%20" SCNu64 ".snap%n", &lsn,
                    &consumed) != 1 ||
        std::string_view(name).substr(consumed) != suffix)
      continue;
    checkpoints.push_back({lsn, entry.path().string()});
  }
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.lsn < b.lsn;
            });
  return checkpoints;
}

bool Checkpointer::checkpoint(const core::CascadeEngine& engine, std::uint64_t lsn,
                              std::string* error) {
  DMIS_ASSERT_MSG(!dir_.empty(), "Checkpointer used before construction");
  const std::string path = checkpoint_path(dir_, lsn);
  // Step 1 — the only step that creates state. core::save_snapshot writes
  // temp + fsync + rename (util::save_staged), so the published path only
  // ever holds a complete checkpoint.
  if (!core::save_snapshot(engine, path, file_factory_, error)) return false;
  ++taken_;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec) bytes_ += size;
  // Steps 2–3 — pure garbage collection; the new checkpoint is durable
  // regardless of whether this succeeds.
  return truncate(dir_, lsn, error);
}

bool Checkpointer::truncate(const std::string& dir, std::uint64_t keep_lsn,
                            std::string* error) {
  bool ok = true;
  for (const CheckpointInfo& info : list_checkpoints(dir)) {
    if (info.lsn >= keep_lsn) continue;
    ok = util::remove_file(info.path, ok ? error : nullptr) && ok;
  }
  const std::vector<SegmentInfo> segments = list_segments(dir);
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    // Segment i holds ops [base_lsn(i), base_lsn(i+1)); deletable once the
    // checkpoint covers all of them. The last segment is always kept — it
    // may be the writer's active one.
    if (segments[i + 1].base_lsn > keep_lsn) break;
    ok = util::remove_file(segments[i].path, ok ? error : nullptr) && ok;
  }
  if (ok) util::fsync_parent_dir(dir + "/.");
  return ok;
}

}  // namespace dmis::service
