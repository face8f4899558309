#include "service/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <system_error>
#include <utility>

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

void Checkpointer::publish(graph::SnapshotImage image, const std::string& dir,
                           const util::FileFactory& factory, Publish& p) {
  try {
    p.published =
        util::publish_staged(checkpoint_path(dir, p.lsn), image, factory, &p.error);
    image.bytes.reset();  // on this thread: a serving caller never pays the unmap
    // Steps 4–5 — pure garbage collection; a published checkpoint is
    // durable regardless of whether this succeeds.
    p.ok = p.published && truncate(dir, p.lsn, &p.error);
  } catch (const std::exception& e) {  // must not escape a thread's entry
    p.ok = false;
    p.error = "checkpoint publish: " + std::string(e.what());
  }
  p.done.store(true, std::memory_order_release);
}

bool Checkpointer::checkpoint(const core::CascadeEngine& engine, std::uint64_t lsn,
                              std::string* error) {
  if (!finish(/*block=*/true, error)) return false;
  start(engine, lsn, /*background=*/false);
  return finish(/*block=*/true, error);
}

void Checkpointer::checkpoint_in_background(const core::CascadeEngine& engine,
                                            std::uint64_t lsn) {
  start(engine, lsn, /*background=*/true);
}

void Checkpointer::start(const core::CascadeEngine& engine, std::uint64_t lsn,
                         bool background) {
  DMIS_ASSERT_MSG(!dir_.empty(), "Checkpointer used before construction");
  DMIS_ASSERT_MSG(publish_ == nullptr, "a checkpoint publish is already in flight");
  graph::SnapshotImage image = core::capture_snapshot(engine);  // step 2
  publish_ = std::make_unique<Publish>();
  Publish& p = *publish_;
  p.lsn = lsn;
  p.bytes = image.header.file_size;
  p.previous_lsn = last_lsn_;
  ++taken_;
  bytes_ += p.bytes;
  last_lsn_ = lsn;
  if (!background) {
    publish(std::move(image), dir_, file_factory_, p);
    return;
  }
  try {
    p.thread = std::thread(publish, std::move(image), dir_, file_factory_, std::ref(p));
  } catch (const std::system_error& e) {
    p.error = "checkpoint publisher thread: " + std::string(e.what());
    p.done.store(true, std::memory_order_release);
  }
}

bool Checkpointer::finish(bool block, std::string* error) {
  if (publish_ == nullptr) return true;
  if (!block && !publish_->done.load(std::memory_order_acquire)) return true;
  const std::unique_ptr<Publish> p = std::move(publish_);
  if (p->thread.joinable()) p->thread.join();
  if (!p->published) {
    // The previous checkpoint is still the newest, so the next is due now.
    --taken_;
    bytes_ -= p->bytes;
    last_lsn_ = p->previous_lsn;
  }
  if (p->ok) return true;
  util::set_error(error, p->error);
  return false;
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
