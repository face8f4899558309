// Kill -9 torture: a forked child ingests a deterministic churn stream
// through MisService and is SIGKILLed at a random point mid-churn — mid
// record append, mid fsync, mid checkpoint, wherever the moment lands. The
// parent then recovers the directory and holds it to the durability
// contract (service/service.hpp):
//
//   * every op the child *acked* before dying (apply() returned true, lsn
//     published to a shared-memory page) is in the recovered engine — for
//     kEveryOp and kEveryBatch alike, since both sync before acking;
//   * the recovered engine is differentially identical to a never-crashed
//     reference fed the same op prefix: same identity (core/identity.hpp:
//     graph, priority keys, membership, priority-RNG state) — and therefore
//     identical op for op under continued churn after the recovery.
//
// The reference replays the prefix in whatever record chunking recovery
// found (possibly splitting a batch mid-way under kEveryOp); equality of
// the final state across chunkings is exactly the fixpoint + draw-order
// argument recovery.hpp relies on, so this test also pins that claim.
//
// Randomness: the kill points vary per run (seed from the clock), so
// repeated CI runs explore different crash surfaces. The seed is printed
// and can be pinned with DMIS_KILL9_SEED for reproduction. One kill point
// is placed on purpose: while a checkpoint's background publish is held in
// its fsync (test::PublishGate) and the consumer has acked past it — the
// crash a publisher thread adds — recovery must start from the checkpoint
// before it, replay the WAL, and delete the staging file.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/identity.hpp"
#include "service/checkpoint.hpp"
#include "service/service.hpp"
#include "support.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"

namespace {

using namespace dmis;
using service::FsyncPolicy;
using service::MisService;
using service::ServiceConfig;

constexpr std::uint64_t kPrioritySeed = 7;
constexpr std::uint64_t kStreamSeed = 424242;

using test::TempDir;

/// The same deterministic stream in parent, child, and reference.
std::vector<core::Batch> make_stream() {
  return workload::drill_stream(100, 6.0, kStreamSeed, 2000, 6);
}

/// What the child tells the parent, in a shared-memory page.
struct ChildPage {
  std::atomic<std::uint64_t> acked{0};  // lsn after the last successful apply
  std::atomic<std::uint64_t> held{0};   // lsn of the checkpoint held open, once it is
};

/// Child body (post-fork): ingest the stream, publishing the acked lsn to
/// the shared page after every successful apply. With `hold_publish` the
/// second checkpoint's publish blocks in its fsync for good, and the page
/// says so once it does. Never returns; only _exit (no gtest, no exit
/// handlers — this process is about to be shot anyway).
[[noreturn]] void run_child(const std::string& dir, FsyncPolicy policy, ChildPage* page,
                            bool hold_publish) {
  test::PublishGate gate;  // never released: only _exit or SIGKILL end the child
  ServiceConfig config;
  config.dir = dir;
  config.priority_seed = kPrioritySeed;
  config.fsync = policy;
  config.checkpoint_interval_ops = 300;  // the kill can land mid-checkpoint
  if (hold_publish) config.checkpoint_file_factory = gate.factory(1);
  std::string error;
  auto svc = MisService::open(config, &error);
  if (!svc.has_value()) _exit(2);
  const auto stream = make_stream();
  for (const core::Batch& batch : stream) {
    if (!svc->apply(batch, &error)) _exit(3);
    page->acked.store(svc->lsn(), std::memory_order_release);
    if (hold_publish && page->held.load(std::memory_order_relaxed) == 0 && gate.held())
      page->held.store(svc->last_checkpoint_lsn(), std::memory_order_release);
  }
  _exit(0);  // outran the killer: full stream ingested
}

struct RoundResult {
  std::uint64_t acked = 0;
  bool child_finished = false;
};

/// One torture round: fork, let the child reach a random acked lsn — or,
/// with `hold_publish`, ack a batch past a checkpoint whose publish is held
/// open — SIGKILL it, recover, verify against the reference, then churn
/// both onward.
void torture_round(FsyncPolicy policy, std::uint64_t kill_at, const std::string& tag,
                   bool hold_publish = false) {
  TempDir dir(tag);
  auto* page = static_cast<ChildPage*>(mmap(nullptr, sizeof(ChildPage),
                                            PROT_READ | PROT_WRITE,
                                            MAP_SHARED | MAP_ANONYMOUS, -1, 0));
  ASSERT_NE(page, MAP_FAILED) << "mmap: " << errno;
  new (page) ChildPage();

  const pid_t pid = fork();
  ASSERT_NE(pid, -1) << "fork: " << errno;
  if (pid == 0) run_child(dir.path, policy, page, hold_publish);

  const auto kill_now = [&] {
    const std::uint64_t acked = page->acked.load(std::memory_order_acquire);
    if (!hold_publish) return acked >= kill_at;
    const std::uint64_t held = page->held.load(std::memory_order_acquire);
    return held != 0 && acked > held;
  };
  RoundResult round;
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::minutes(1);
  for (;;) {
    const pid_t done = waitpid(pid, &status, WNOHANG);
    ASSERT_NE(done, -1) << "waitpid: " << errno;
    if (done == pid) {
      ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << tag << ": child failed before the kill, status " << status;
      round.child_finished = true;
      break;
    }
    const bool late = std::chrono::steady_clock::now() > deadline;
    if (kill_now() || late) {
      kill(pid, SIGKILL);
      ASSERT_EQ(waitpid(pid, &status, 0), pid);
      ASSERT_FALSE(late) << tag << ": the child never reached its kill point";
      break;
    }
    usleep(100);
  }
  round.acked = page->acked.load(std::memory_order_acquire);
  const std::uint64_t held = page->held.load(std::memory_order_acquire);
  munmap(page, sizeof(ChildPage));

  // A held publish died mid-fsync: its staging file is on disk, its
  // checkpoint is not, and recovery must start from the one before it.
  std::uint64_t previous_checkpoint = 0;
  if (hold_publish) {
    ASSERT_FALSE(round.child_finished) << tag << ": the held publish never blocked";
    ASSERT_TRUE(std::filesystem::exists(service::checkpoint_path(dir.path, held) +
                                        util::kStagingSuffix))
        << tag;
    const auto checkpoints = service::list_checkpoints(dir.path);
    ASSERT_EQ(checkpoints.size(), 1U) << tag;
    previous_checkpoint = checkpoints[0].lsn;
    ASSERT_LT(previous_checkpoint, held) << tag;
  }

  // Recover. No fault injection here: the only "fault" is whatever on-disk
  // state the SIGKILL froze.
  ServiceConfig config;
  config.dir = dir.path;
  config.priority_seed = kPrioritySeed;
  std::string error;
  auto svc = MisService::open(config, &error);
  ASSERT_TRUE(svc.has_value()) << tag << ": recovery failed: " << error << "\n";
  if (hold_publish) {
    EXPECT_EQ(svc->recovery().checkpoint_lsn, previous_checkpoint)
        << tag << "\n" << svc->recovery().detail;
  }
  // A kill mid-checkpoint leaves the save's staging file; the open deletes it.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path))
    ASSERT_NE(entry.path().extension(), ".tmp")
        << tag << ": " << entry.path() << " survived recovery\n"
        << svc->recovery().detail;

  const auto stream = make_stream();
  std::uint64_t total = 0;
  for (const auto& b : stream) total += b.size();

  // Durability: nothing acked may be lost; nothing may be invented.
  const std::uint64_t recovered = svc->recovery().recovered_lsn;
  ASSERT_GE(recovered, round.acked)
      << tag << ": acked ops lost\n" << svc->recovery().detail;
  ASSERT_LE(recovered, total) << tag;
  if (round.child_finished) {
    ASSERT_EQ(recovered, total) << tag;
  }

  // State: differentially identical to the never-crashed reference fed
  // the first `recovered` ops.
  core::CascadeEngine ref(kPrioritySeed);
  for (const core::Batch& b : workload::slice(stream, 0, recovered))
    (void)core::apply_batch(ref, b);
  ASSERT_EQ(core::state_diff(svc->engine(), ref), "") << tag << ": at recovery";
  svc->engine().verify();

  // Continued churn: finish the partially-recovered batch, then feed both
  // sides the same ~300 further ops; every repair must match exactly.
  std::uint64_t extra = 0;
  for (const core::Batch& b : workload::slice(stream, recovered)) {
    if (extra >= 300) break;
    ASSERT_TRUE(svc->apply(b, &error)) << tag << ": " << error;
    const core::BatchResult want = core::apply_batch(ref, b);
    ASSERT_EQ(svc->last_result().report.adjustments, want.report.adjustments) << tag;
    ASSERT_EQ(svc->last_result().new_nodes, want.new_nodes) << tag;
    extra += b.size();
  }
  ASSERT_EQ(core::state_diff(svc->engine(), ref), "") << tag << ": after continued churn";
  svc->engine().verify();
  ASSERT_TRUE(svc->close(&error)) << error;
}

std::uint64_t torture_seed() {
  if (const char* env = std::getenv("DMIS_KILL9_SEED"); env != nullptr)
    return std::strtoull(env, nullptr, 0);
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}

class Kill9Recovery : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = torture_seed();
    std::printf("kill9 torture seed: %llu (override with DMIS_KILL9_SEED)\n",
                static_cast<unsigned long long>(seed_));
  }
  std::uint64_t seed_ = 0;
};

TEST_F(Kill9Recovery, EveryBatchPolicy) {
  util::Rng rng(seed_);
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t kill_at = 1 + rng.below(1900);
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at));
    torture_round(FsyncPolicy::kEveryBatch, kill_at,
                  "batch_r" + std::to_string(round));
    if (HasFatalFailure()) return;
  }
}

TEST_F(Kill9Recovery, KilledWhileAPublishIsHeldOpen) {
  // Deterministic: the kill lands while the second checkpoint's publish
  // sits in its fsync on the publisher thread, after the consumer has
  // acked at least one more batch.
  torture_round(FsyncPolicy::kEveryBatch, 0, "held_batch", /*hold_publish=*/true);
  if (HasFatalFailure()) return;
  torture_round(FsyncPolicy::kEveryOp, 0, "held_op", /*hold_publish=*/true);
}

TEST_F(Kill9Recovery, EveryOpPolicy) {
  util::Rng rng(seed_ ^ 0x9e3779b97f4a7c15ULL);
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t kill_at = 1 + rng.below(1900);
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at));
    torture_round(FsyncPolicy::kEveryOp, kill_at, "op_r" + std::to_string(round));
    if (HasFatalFailure()) return;
  }
}

}  // namespace

#else  // non-POSIX: fork/SIGKILL semantics unavailable

TEST(Kill9Recovery, SkippedOnNonPosix) { GTEST_SKIP(); }

#endif  // POSIX
