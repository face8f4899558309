// MisService end-to-end: open (= recover) → apply → checkpoint → close
// cycles, differentially checked against an engine that was fed the same
// batches and never touched a disk. The recovered service must match that
// reference in graph, membership, and — the strict part — priority RNG
// state, so that every op applied *after* a restart also matches op for
// op (recovery.hpp's "differentially identical" contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/engine_snapshot.hpp"
#include "service/checkpoint.hpp"
#include "service/service.hpp"
#include "service/wal.hpp"
#include "support.hpp"
#include "util/fault_file.hpp"

namespace {

using namespace dmis;
using service::FsyncPolicy;
using service::MisService;
using service::ServiceConfig;
using test::expect_same;
using test::make_stream;
using test::reference;
using test::TempDir;

std::size_t total_ops(const std::vector<core::Batch>& batches,
                      std::size_t first = ~static_cast<std::size_t>(0)) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < batches.size() && i < first; ++i) n += batches[i].size();
  return n;
}

ServiceConfig config_for(const std::string& dir) {
  ServiceConfig config;
  config.dir = dir;
  config.priority_seed = 7;
  return config;
}

void flip_byte(const std::string& path, std::int64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  char byte = 0;
  f.seekg(offset, std::ios::beg);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(offset, std::ios::beg);
  f.write(&byte, 1);
}

TEST(Service, ColdOpenAppliesAndAcksDurable) {
  TempDir dir("cold");
  std::string error;
  auto service = MisService::open(config_for(dir.path), &error);
  ASSERT_TRUE(service.has_value()) << error;
  EXPECT_EQ(service->lsn(), 0U);
  EXPECT_EQ(service->recovery().checkpoint_lsn, 0U);
  EXPECT_TRUE(service->recovery().checkpoint_path.empty());

  const auto batches = make_stream(101, 600, 8);
  std::size_t ops = 0;
  for (const auto& batch : batches) {
    ASSERT_TRUE(service->apply(batch, &error)) << error;
    ops += batch.size();
    ASSERT_EQ(service->lsn(), ops);
    // kEveryBatch: the ack means this very batch is on disk.
    ASSERT_EQ(service->durable_lsn(), ops);
  }
  expect_same(service->engine(), reference(batches, batches.size(), 7), "cold run");
  ASSERT_TRUE(service->close(&error)) << error;
}

TEST(Service, CleanRestartContinuesDifferentially) {
  TempDir dir("restart");
  const auto batches = make_stream(202, 900, 8);
  const std::size_t half = batches.size() / 2;
  std::string error;
  {
    auto service = MisService::open(config_for(dir.path), &error);
    ASSERT_TRUE(service.has_value()) << error;
    for (std::size_t i = 0; i < half; ++i)
      ASSERT_TRUE(service->apply(batches[i], &error)) << error;
    ASSERT_TRUE(service->close(&error)) << error;
  }
  auto service = MisService::open(config_for(dir.path), &error);
  ASSERT_TRUE(service.has_value()) << error;
  EXPECT_FALSE(service->recovery().torn_tail) << service->recovery().detail;
  EXPECT_EQ(service->recovery().recovered_lsn, total_ops(batches, half));
  expect_same(service->engine(), reference(batches, half, 7), "after clean restart");

  // The recovered process and the never-restarted reference must now agree
  // op for op — same repair sizes, same fresh-node priority draws.
  core::CascadeEngine ref = reference(batches, half, 7);
  for (std::size_t i = half; i < batches.size(); ++i) {
    ASSERT_TRUE(service->apply(batches[i], &error)) << error;
    const core::BatchResult want = core::apply_batch(ref, batches[i]);
    ASSERT_EQ(service->last_result().report.adjustments, want.report.adjustments)
        << "batch " << i;
    ASSERT_EQ(service->last_result().new_nodes, want.new_nodes) << "batch " << i;
  }
  expect_same(service->engine(), ref, "continued churn after restart");
  ASSERT_TRUE(service->close(&error)) << error;
}

TEST(Service, CrashWithoutCloseReplaysEverything) {
  TempDir dir("crash");
  const auto batches = make_stream(303, 700, 8);
  std::string error;
  {
    auto service = MisService::open(config_for(dir.path), &error);
    ASSERT_TRUE(service.has_value()) << error;
    for (const auto& batch : batches)
      ASSERT_TRUE(service->apply(batch, &error)) << error;
    // No close(): the segment ends unsealed, exactly like a process that
    // died between appends. Every record was synced, so nothing is lost.
  }
  auto service = MisService::open(config_for(dir.path), &error);
  ASSERT_TRUE(service.has_value()) << error;
  EXPECT_EQ(service->recovery().recovered_lsn, total_ops(batches));
  EXPECT_EQ(service->recovery().replayed_ops, total_ops(batches));
  EXPECT_FALSE(service->recovery().torn_tail) << service->recovery().detail;
  expect_same(service->engine(), reference(batches, batches.size(), 7),
              "unsealed-tail recovery");
  ASSERT_TRUE(service->close(&error)) << error;
}

TEST(Service, TornTailKeepsAckedPrefixAndContinuesAcrossSegments) {
  TempDir dir("torn");
  const auto batches = make_stream(404, 900, 8);
  std::string error;

  // Run against a disk that tears a write mid-record: the service acks
  // some prefix of the stream, then apply() fails.
  std::size_t acked = 0;
  {
    util::FaultPlan plan;
    plan.write_budget = 64 + 777;  // segment header + a few records, torn mid-record
    ServiceConfig config = config_for(dir.path);
    config.file_factory = util::faulty_factory(plan);
    auto service = MisService::open(config, &error);
    ASSERT_TRUE(service.has_value()) << error;
    for (const auto& batch : batches) {
      if (!service->apply(batch, &error)) break;
      ++acked;
    }
    ASSERT_LT(acked, batches.size());
    ASSERT_GT(acked, 0U);
    // Poisoned writer: nothing more goes through.
    EXPECT_FALSE(service->apply(batches[acked], &error));
  }

  // First recovery: the acked prefix survives, the torn record is shed.
  const std::size_t acked_ops = total_ops(batches, acked);
  std::size_t more = 0;
  {
    auto service = MisService::open(config_for(dir.path), &error);
    ASSERT_TRUE(service.has_value()) << error;
    EXPECT_TRUE(service->recovery().torn_tail) << service->recovery().detail;
    EXPECT_EQ(service->recovery().recovered_lsn, acked_ops);
    expect_same(service->engine(), reference(batches, acked, 7), "post-tear recovery");
    // Keep going on the healthy disk: the writer opened segment 2 based at
    // the recovered lsn, leaving segment 1's dead tail in place.
    for (std::size_t i = acked; i < batches.size(); ++i) {
      ASSERT_TRUE(service->apply(batches[i], &error)) << error;
      ++more;
    }
    // Crash again (no close): the next recovery must chain through the
    // torn segment 1 into segment 2 by the base-lsn continuity rule.
  }
  auto service = MisService::open(config_for(dir.path), &error);
  ASSERT_TRUE(service.has_value()) << error;
  EXPECT_EQ(service->recovery().recovered_lsn, total_ops(batches));
  expect_same(service->engine(), reference(batches, batches.size(), 7),
              "recovery across a dead tail");
  ASSERT_TRUE(service->close(&error)) << error;
}

TEST(Service, CheckpointTruncatesWalAndBoundsReplay) {
  TempDir dir("ckpt");
  const auto batches = make_stream(505, 900, 8);
  const std::size_t half = batches.size() / 2;
  std::string error;
  std::uint64_t checkpoint_lsn = 0;
  {
    ServiceConfig config = config_for(dir.path);
    config.segment_bytes = 2048;  // many small segments so truncation bites
    auto service = MisService::open(config, &error);
    ASSERT_TRUE(service.has_value()) << error;
    for (std::size_t i = 0; i < half; ++i)
      ASSERT_TRUE(service->apply(batches[i], &error)) << error;
    const std::size_t segments_before = service::list_segments(dir.path).size();
    ASSERT_GT(segments_before, 2U);
    ASSERT_TRUE(service->checkpoint(&error)) << error;
    checkpoint_lsn = service->last_checkpoint_lsn();
    EXPECT_EQ(checkpoint_lsn, service->lsn());
    // Sealed segments wholly behind the checkpoint are gone; the active
    // one (and the checkpoint itself) remain.
    EXPECT_LT(service::list_segments(dir.path).size(), segments_before);
    EXPECT_EQ(service::list_checkpoints(dir.path).size(), 1U);
    for (std::size_t i = half; i < batches.size(); ++i)
      ASSERT_TRUE(service->apply(batches[i], &error)) << error;
    ASSERT_TRUE(service->close(&error)) << error;
  }
  auto service = MisService::open(config_for(dir.path), &error);
  ASSERT_TRUE(service.has_value()) << error;
  EXPECT_EQ(service->recovery().checkpoint_lsn, checkpoint_lsn);
  EXPECT_EQ(service->recovery().replayed_ops, total_ops(batches) - checkpoint_lsn);
  EXPECT_FALSE(service->recovery().torn_tail) << service->recovery().detail;
  expect_same(service->engine(), reference(batches, batches.size(), 7),
              "checkpoint + tail replay");
  ASSERT_TRUE(service->close(&error)) << error;
}

TEST(Service, AutoCheckpointsAtConfiguredInterval) {
  TempDir dir("auto");
  const auto batches = make_stream(606, 800, 8);
  std::string error;
  {
    ServiceConfig config = config_for(dir.path);
    config.checkpoint_interval_ops = 128;
    auto service = MisService::open(config, &error);
    ASSERT_TRUE(service.has_value()) << error;
    for (const auto& batch : batches)
      ASSERT_TRUE(service->apply(batch, &error)) << error;
    EXPECT_GE(service->checkpoints_taken(), total_ops(batches) / 128 / 2);
    EXPECT_GT(service->checkpoint_bytes(), 0U);
    ASSERT_TRUE(service->close(&error)) << error;
  }
  auto service = MisService::open(config_for(dir.path), &error);
  ASSERT_TRUE(service.has_value()) << error;
  EXPECT_GT(service->recovery().checkpoint_lsn, 0U);
  expect_same(service->engine(), reference(batches, batches.size(), 7),
              "auto-checkpointed restart");
  ASSERT_TRUE(service->close(&error)) << error;
}

TEST(Service, CorruptCheckpointFallsBackToFullReplay) {
  // Two corruptions: a flipped byte, and a checksum-valid v4 checkpoint
  // with one adjacency entry redirected, which only verify()'s symmetry
  // check can see.
  for (const bool structural : {false, true}) {
    TempDir dir(structural ? "badckpt_struct" : "badckpt");
    const auto batches = make_stream(707, 600, 8);
    const std::size_t half = batches.size() / 2;
    std::string error;
    std::uint64_t checkpoint_lsn = 0;
    {
      // One big segment: truncation never removes it (it is the active
      // one), so the full log from lsn 0 stays available as the fallback.
      auto service = MisService::open(config_for(dir.path), &error);
      ASSERT_TRUE(service.has_value()) << error;
      for (std::size_t i = 0; i < half; ++i)
        ASSERT_TRUE(service->apply(batches[i], &error)) << error;
      ASSERT_TRUE(service->checkpoint(&error)) << error;
      checkpoint_lsn = service->last_checkpoint_lsn();
      for (std::size_t i = half; i < batches.size(); ++i)
        ASSERT_TRUE(service->apply(batches[i], &error)) << error;
      ASSERT_TRUE(service->close(&error)) << error;
    }
    // verify() (or open()) must reject the checkpoint and recovery must
    // rebuild from lsn 0 instead of trusting it.
    const std::string cp = service::checkpoint_path(dir.path, checkpoint_lsn);
    if (structural)
      test::redirect_one_neighbor(cp);
    else
      flip_byte(cp, static_cast<std::int64_t>(std::filesystem::file_size(cp)) - 9);
    auto service = MisService::open(config_for(dir.path), &error);
    ASSERT_TRUE(service.has_value()) << error;
    EXPECT_EQ(service->recovery().checkpoints_rejected, 1U);
    EXPECT_EQ(service->recovery().checkpoint_lsn, 0U);
    EXPECT_EQ(service->recovery().replayed_ops, total_ops(batches));
    if (structural) {
      EXPECT_NE(service->recovery().detail.find("not symmetric"), std::string::npos)
          << service->recovery().detail;
    }
    expect_same(service->engine(), reference(batches, batches.size(), 7),
                structural ? "fallback past a resealed bad checkpoint"
                           : "fallback full replay");
    ASSERT_TRUE(service->close(&error)) << error;
  }
}

TEST(Service, MissingCheckpointAfterTruncationIsAHardError) {
  TempDir dir("gap");
  const auto batches = make_stream(808, 700, 8);
  std::string error;
  std::uint64_t checkpoint_lsn = 0;
  {
    ServiceConfig config = config_for(dir.path);
    config.segment_bytes = 1024;  // force truncation to delete early segments
    auto service = MisService::open(config, &error);
    ASSERT_TRUE(service.has_value()) << error;
    for (const auto& batch : batches)
      ASSERT_TRUE(service->apply(batch, &error)) << error;
    ASSERT_TRUE(service->checkpoint(&error)) << error;
    checkpoint_lsn = service->last_checkpoint_lsn();
    ASSERT_TRUE(service->close(&error)) << error;
  }
  ASSERT_GT(service::list_segments(dir.path)[0].base_lsn, 0U)
      << "truncation should have deleted the lsn-0 segment";
  // Deleting the checkpoint now leaves ops [0, first segment base) existing
  // nowhere. Recovery must refuse — a silent cold start would serve a
  // wrong MIS.
  std::filesystem::remove(service::checkpoint_path(dir.path, checkpoint_lsn));
  auto service = MisService::open(config_for(dir.path), &error);
  EXPECT_FALSE(service.has_value());
  EXPECT_NE(error.find("gap"), std::string::npos) << error;
}

// --- Unreachable segments -------------------------------------------------
//
// A bit flip in a sealed segment ends the log early: recovery keeps the
// valid prefix and every later segment becomes unreachable. Reopening for
// writing must move those segments aside, or the next recovery would stop
// at the same place (dropping every batch acked since) or, warm-starting
// past it, replay the abandoned history.

ServiceConfig small_segments(const std::string& dir) {
  ServiceConfig config = config_for(dir);
  config.segment_bytes = 1024;
  return config;
}

/// Log `batches` in 1 KiB segments, then flip one byte 300 bytes into
/// segment 1's records. Its first record (8 edgeless add_nodes, 192 bytes)
/// survives, so recovery reaches lsn 8. Returns the segments as written.
std::vector<service::SegmentInfo> log_then_corrupt_segment1(
    const std::string& dir, const std::vector<core::Batch>& batches) {
  std::string error;
  {
    auto service = MisService::open(small_segments(dir), &error);
    EXPECT_TRUE(service.has_value()) << error;
    for (const auto& batch : batches) EXPECT_TRUE(service->apply(batch, &error)) << error;
    EXPECT_TRUE(service->close(&error)) << error;
  }
  std::vector<service::SegmentInfo> segments = service::list_segments(dir);
  flip_byte(segments.front().path, sizeof(service::WalSegmentHeader) + 300);
  return segments;
}

TEST(Service, UnreachableSegmentsAreMovedAsideAndLaterAcksSurvive) {
  TempDir dir("aside");
  const auto batches = make_stream(1001, 1200, 8);
  const auto written = log_then_corrupt_segment1(dir.path, batches);
  ASSERT_GT(written.size(), 2U);
  std::string error;
  {
    auto service = MisService::open(small_segments(dir.path), &error);
    ASSERT_TRUE(service.has_value()) << error;
    ASSERT_EQ(service->lsn(), 8U);
    EXPECT_TRUE(service->recovery().torn_tail) << service->recovery().detail;
    // The bytes stay on disk under a name list_segments skips, and the
    // fresh segment took a seq none of them had.
    std::size_t moved = 0;
    for (std::size_t i = 1; i < written.size(); ++i)
      moved += std::filesystem::exists(written[i].path + ".unreachable") ? 1 : 0;
    EXPECT_EQ(moved, written.size() - 1);
    EXPECT_GT(service->wal_segment_seq(), written.back().seq);
    for (std::size_t i = 1; i < batches.size(); ++i)
      ASSERT_TRUE(service->apply(batches[i], &error)) << error;
    // No close: crash with every batch acked under every-batch fsync.
  }
  auto service = MisService::open(small_segments(dir.path), &error);
  ASSERT_TRUE(service.has_value()) << error;
  EXPECT_EQ(service->lsn(), total_ops(batches)) << service->recovery().detail;
  expect_same(service->engine(), reference(batches, batches.size(), 7),
              "batches acked after a move-aside");
}

TEST(Service, CheckpointAmongMovedAsideBasesRecoversTheNewHistory) {
  TempDir dir("aside_ckpt");
  // Every stream opens with 120 edgeless add_nodes, so the new history's
  // batches apply on top of the old history's first 8 ops.
  const auto old_history = make_stream(1002, 1200, 8);
  const auto new_history = make_stream(2002, 1200, 8);
  const auto written = log_then_corrupt_segment1(dir.path, old_history);
  // Checkpoint strictly between two consecutive abandoned base_lsns, so a
  // recovery that still saw them would start replay in the old history.
  constexpr std::uint64_t kCheckpointLsn = 568;
  ASSERT_NE(std::adjacent_find(written.begin(), written.end(),
                               [](const service::SegmentInfo& a,
                                  const service::SegmentInfo& b) {
                                 return a.base_lsn < kCheckpointLsn &&
                                        kCheckpointLsn < b.base_lsn;
                               }),
            written.end());
  std::string error;
  std::size_t applied = 1;  // batch 0 == the 8 ops recovery keeps
  {
    auto service = MisService::open(small_segments(dir.path), &error);
    ASSERT_TRUE(service.has_value()) << error;
    ASSERT_EQ(service->lsn(), 8U);
    while (service->lsn() < kCheckpointLsn)
      ASSERT_TRUE(service->apply(new_history[applied++], &error)) << error;
    ASSERT_EQ(service->lsn(), kCheckpointLsn);
    ASSERT_TRUE(service->checkpoint(&error)) << error;
    for (; applied < new_history.size() / 2; ++applied)
      ASSERT_TRUE(service->apply(new_history[applied], &error)) << error;
  }
  auto service = MisService::open(small_segments(dir.path), &error);
  ASSERT_TRUE(service.has_value()) << error;
  EXPECT_EQ(service->recovery().checkpoint_lsn, kCheckpointLsn);
  EXPECT_EQ(service->lsn(), total_ops(new_history, applied));
  expect_same(service->engine(), reference(new_history, applied, 7),
              "new history over moved-aside bases");
}

TEST(Service, OpenDeletesStaleCheckpointStagingFiles) {
  TempDir dir("stale_staging");
  const auto batches = make_stream(1101, 900, 8);
  const std::size_t half = batches.size() / 2;
  std::string error;
  std::uint64_t checkpoint_lsn = 0;
  {
    auto service = MisService::open(config_for(dir.path), &error);
    ASSERT_TRUE(service.has_value()) << error;
    for (std::size_t i = 0; i < half; ++i)
      ASSERT_TRUE(service->apply(batches[i], &error)) << error;
    ASSERT_TRUE(service->checkpoint(&error)) << error;
    checkpoint_lsn = service->last_checkpoint_lsn();
    for (std::size_t i = half; i < batches.size(); ++i)
      ASSERT_TRUE(service->apply(batches[i], &error)) << error;
    ASSERT_TRUE(service->close(&error)) << error;
  }
  // A crash during a later checkpoint save left its staging file: a torn
  // prefix of a checkpoint that never published. Its name carries the lsn,
  // so no later save would ever overwrite it.
  ASSERT_LT(checkpoint_lsn, 600U);
  const std::string stale = service::checkpoint_path(dir.path, 600) + ".tmp";
  std::vector<std::uint8_t> torn =
      test::read_bytes(service::checkpoint_path(dir.path, checkpoint_lsn));
  torn.resize(torn.size() / 2);
  test::write_bytes(stale, torn);

  auto service = MisService::open(config_for(dir.path), &error);
  ASSERT_TRUE(service.has_value()) << error;
  EXPECT_FALSE(std::filesystem::exists(stale)) << service->recovery().detail;
  EXPECT_NE(service->recovery().detail.find("removed staging file: " + stale),
            std::string::npos)
      << service->recovery().detail;
  // The recovered state is the one the stale file never touched.
  EXPECT_EQ(service->recovery().checkpoint_lsn, checkpoint_lsn);
  EXPECT_EQ(service->recovery().recovered_lsn, total_ops(batches));
  expect_same(service->engine(), reference(batches, batches.size(), 7),
              "recovery beside a stale staging file");
  EXPECT_EQ(service::list_checkpoints(dir.path).size(), 1U);
  ASSERT_TRUE(service->close(&error)) << error;
}

TEST(Service, EveryOpPolicyRecoversIdentically) {
  TempDir dir("everyop");
  const auto batches = make_stream(909, 500, 8);
  std::string error;
  {
    ServiceConfig config = config_for(dir.path);
    config.fsync = FsyncPolicy::kEveryOp;
    auto service = MisService::open(config, &error);
    ASSERT_TRUE(service.has_value()) << error;
    for (const auto& batch : batches)
      ASSERT_TRUE(service->apply(batch, &error)) << error;
    // No close — per-op records must still recover to the same state a
    // batch-record log would have produced (RNG parity across the split).
  }
  auto service = MisService::open(config_for(dir.path), &error);
  ASSERT_TRUE(service.has_value()) << error;
  EXPECT_EQ(service->recovery().recovered_lsn, total_ops(batches));
  expect_same(service->engine(), reference(batches, batches.size(), 7),
              "per-op records replayed");
  ASSERT_TRUE(service->close(&error)) << error;
}

// --- Checkpoint publish under fault injection ------------------------------
//
// The publish path is temp-write → fsync → rename. Whichever step fails,
// and whether checkpoint() published on the calling thread or an
// auto-checkpoint's publisher thread failed, the contract is the same: the
// failure surfaces exactly once, naming the staging file and the syscall;
// the previous checkpoint (and the WAL behind it) survives untouched, with
// no staging file left; last_checkpoint_lsn() falls back to it, so the next
// auto-checkpoint is due at once; the service keeps serving; and recovery
// lands on the exact reference state. config.checkpoint_file_factory is a
// seam separate from the WAL's so these schedules don't shift the WAL
// fault counter.

/// Who takes the failing checkpoint, and who reports its failure.
enum class Taken {
  kExplicit,    // checkpoint() publishes on this thread and reports it
  kAutoApply,   // the publisher thread; the next apply() reports it
  kAutoSync,    // the publisher thread; sync() waits for it and reports it
};

/// Checkpoint at half of a 1200-op stream (this one publishes), then at its
/// end (this one fails: through `factory`, or — `squat` — because a
/// directory squats on the final path, so only the rename fails).
void expect_failed_publish_survived(Taken taken, const std::string& tag,
                                    std::uint64_t stream_seed, util::FileFactory factory,
                                    bool squat, const std::string& syscall) {
  const bool automatic = taken != Taken::kExplicit;
  const std::string mode = taken == Taken::kExplicit    ? "explicit"
                           : taken == Taken::kAutoApply ? "auto_apply"
                                                        : "auto_sync";
  const std::string where = tag + " (" + mode + ")";
  TempDir dir(tag + "_" + mode);
  const auto batches = make_stream(stream_seed, 1200, 8);
  const std::size_t half = batches.size() / 2;
  const std::uint64_t half_lsn = total_ops(batches, half);
  const std::uint64_t full_lsn = total_ops(batches);
  ServiceConfig config = config_for(dir.path);
  config.checkpoint_file_factory = std::move(factory);
  // Auto-checkpoints then come due at exactly half_lsn and full_lsn.
  if (automatic) config.checkpoint_interval_ops = half_lsn;
  std::string error;
  auto service = MisService::open(config, &error);
  ASSERT_TRUE(service.has_value()) << where << ": " << error;

  for (std::size_t i = 0; i < half; ++i)
    ASSERT_TRUE(service->apply(batches[i], &error)) << where << ": " << error;
  if (taken == Taken::kExplicit) {
    ASSERT_TRUE(service->checkpoint(&error)) << where << ": " << error;
  } else {
    ASSERT_TRUE(service->sync(&error)) << where << ": " << error;
  }
  ASSERT_EQ(service->last_checkpoint_lsn(), half_lsn) << where;
  const std::string failing = service::checkpoint_path(dir.path, full_lsn);
  if (squat) std::filesystem::create_directories(failing);

  for (std::size_t i = half; i < batches.size(); ++i)
    ASSERT_TRUE(service->apply(batches[i], &error)) << where << ": " << error;
  core::CascadeEngine want = reference(batches, batches.size(), 7);
  core::Batch extra;
  extra.add_node(std::span<const graph::NodeId>{});  // always valid under churn
  std::string fault;
  if (taken == Taken::kExplicit) {
    EXPECT_FALSE(service->checkpoint(&fault)) << where << ": the failure must surface";
  } else if (taken == Taken::kAutoSync) {
    EXPECT_EQ(service->last_checkpoint_lsn(), full_lsn) << where << ": not captured";
    EXPECT_FALSE(service->sync(&fault)) << where << ": the failure must surface";
    EXPECT_EQ(service->lsn(), full_lsn) << where;
  } else {
    EXPECT_EQ(service->last_checkpoint_lsn(), full_lsn) << where << ": not captured";
    // Until the publisher has failed, apply() acks as usual; the first one
    // after it reports the failure before logging its batch.
    for (int tries = 0;; ++tries) {
      ASSERT_LT(tries, 400) << where << ": the failed publish never surfaced";
      const std::uint64_t lsn = service->lsn();
      if (!service->apply(extra, &fault)) {
        EXPECT_EQ(service->lsn(), lsn) << where << ": the reporting apply moved the lsn";
        break;
      }
      (void)core::apply_batch(want, extra);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_NE(fault.find(failing + ".tmp"), std::string::npos) << where << ": " << fault;
  EXPECT_NE(fault.find(": " + syscall + ": "), std::string::npos)
      << where << ": " << fault;
  EXPECT_EQ(service->last_checkpoint_lsn(), half_lsn)
      << where << ": the failed publish moved it";

  // The failed attempt left no debris that recovery could mistake for a
  // checkpoint, and the good one is still there.
  const auto checkpoints = service::list_checkpoints(dir.path);
  ASSERT_EQ(checkpoints.size(), 1U) << where;
  EXPECT_EQ(checkpoints[0].lsn, half_lsn) << where;
  EXPECT_TRUE(service::list_checkpoints(dir.path, util::kStagingSuffix).empty()) << where;

  // Reported once: the barrier after it is clean. The service itself is
  // unharmed, and an auto-checkpoint is due again at the next batch.
  ASSERT_TRUE(service->sync(&error)) << where << ": " << error;
  ASSERT_TRUE(service->apply(extra, &error)) << where << ": " << error;
  (void)core::apply_batch(want, extra);
  const std::uint64_t recovered_from = automatic ? service->lsn() : half_lsn;
  EXPECT_EQ(service->last_checkpoint_lsn(), recovered_from) << where;
  ASSERT_TRUE(service->close(&error)) << where << ": " << error;

  auto reopened = MisService::open(config_for(dir.path), &error);
  ASSERT_TRUE(reopened.has_value()) << where << ": " << error;
  expect_same(reopened->engine(), want, "recovery after a failed publish: " + where);
  EXPECT_EQ(reopened->recovery().checkpoint_lsn, recovered_from)
      << where << ": recovery must warm-start from the newest surviving checkpoint";
  if (squat) std::filesystem::remove_all(failing);
}

TEST(Service, CheckpointTempWriteFailureLeavesPreviousCheckpointIntact) {
  // File #0 through this factory is the first checkpoint's temp file
  // (clean); file #1 — the second checkpoint — dies after 256 bytes.
  util::FaultPlan plan;
  plan.write_budget = 256;
  for (const Taken taken : {Taken::kExplicit, Taken::kAutoApply, Taken::kAutoSync})
    expect_failed_publish_survived(taken, "cp_write_fault", 901,
                                   util::faulty_factory(plan, 1), false, "write");
}

TEST(Service, CheckpointFsyncFailureLeavesPreviousCheckpointIntact) {
  util::FaultPlan plan;
  plan.sync_budget = 0;  // first fsync on the temp file fails
  for (const Taken taken : {Taken::kExplicit, Taken::kAutoApply, Taken::kAutoSync})
    expect_failed_publish_survived(taken, "cp_sync_fault", 902,
                                   util::faulty_factory(plan, 1), false, "fsync");
}

TEST(Service, CheckpointRenameFailureLeavesPreviousCheckpointIntact) {
  for (const Taken taken : {Taken::kExplicit, Taken::kAutoApply, Taken::kAutoSync})
    expect_failed_publish_survived(taken, "cp_rename_fault", 903, {}, true, "rename");
}

// --- The ack path while a publish is in flight ----------------------------

/// Apply `batches` from `*next` until an auto-checkpoint is captured.
void apply_until_captured(MisService& service, const std::vector<core::Batch>& batches,
                          std::size_t* next) {
  std::string error;
  const std::uint64_t before = service.checkpoints_taken();
  while (service.checkpoints_taken() == before) {
    ASSERT_LT(*next, batches.size());
    ASSERT_TRUE(service.apply(batches[(*next)++], &error)) << error;
  }
}

TEST(Service, HeldPublishLeavesTheAckPathFree) {
  TempDir dir("held_publish");
  const auto batches = make_stream(904, 1200, 8);
  std::optional<MisService> service;
  test::PublishGate gate;
  ServiceConfig config = config_for(dir.path);
  config.checkpoint_interval_ops = 400;
  config.checkpoint_file_factory = gate.factory();
  std::string error;
  service = MisService::open(config, &error);
  ASSERT_TRUE(service.has_value()) << error;

  std::size_t next = 0;
  apply_until_captured(*service, batches, &next);
  if (HasFatalFailure()) return;
  const std::size_t captured_batches = next;
  const std::uint64_t captured = service->last_checkpoint_lsn();
  ASSERT_EQ(captured, service->lsn());
  ASSERT_TRUE(gate.wait_held());

  // The publish is stuck in its fsync; batches keep being acked.
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(service->apply(batches[next++], &error)) << error;
  EXPECT_EQ(service->lsn(), total_ops(batches, next));
  const std::string published = service::checkpoint_path(dir.path, captured);
  EXPECT_FALSE(std::filesystem::exists(published)) << "published before its fsync";

  gate.release();
  ASSERT_TRUE(service->sync(&error)) << error;
  // The publisher wrote exactly what a save of the same prefix writes.
  test::TempFile want("held_publish_want.snap");
  const core::CascadeEngine prefix = reference(batches, captured_batches, 7);
  ASSERT_TRUE(core::save_snapshot(prefix, want.path, &error)) << error;
  EXPECT_EQ(test::read_bytes(published), test::read_bytes(want.path));
  ASSERT_TRUE(service->close(&error)) << error;

  auto reopened = MisService::open(config_for(dir.path), &error);
  ASSERT_TRUE(reopened.has_value()) << error;
  EXPECT_EQ(reopened->recovery().checkpoint_lsn, captured);
  expect_same(reopened->engine(), reference(batches, next, 7), "after a held publish");
}

TEST(Service, CloseWaitsForThePublishInFlight) {
  TempDir dir("close_mid_publish");
  const auto batches = make_stream(905, 1200, 8);
  std::optional<MisService> service;
  test::PublishGate gate;
  ServiceConfig config = config_for(dir.path);
  config.checkpoint_interval_ops = 400;
  config.checkpoint_file_factory = gate.factory();
  std::string error;
  service = MisService::open(config, &error);
  ASSERT_TRUE(service.has_value()) << error;
  std::size_t next = 0;
  apply_until_captured(*service, batches, &next);
  if (HasFatalFailure()) return;
  const std::string published =
      service::checkpoint_path(dir.path, service->last_checkpoint_lsn());
  ASSERT_TRUE(gate.wait_held());

  std::atomic<bool> closed{false};
  bool close_ok = false;
  std::string close_error;
  std::thread closer([&] {
    close_ok = service->close(&close_error);
    closed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(closed.load()) << "close() returned while the publish was held";
  gate.release();
  closer.join();
  EXPECT_TRUE(close_ok) << close_error;
  EXPECT_TRUE(std::filesystem::exists(published));
  EXPECT_FALSE(std::filesystem::exists(published + util::kStagingSuffix));

  auto reopened = MisService::open(config_for(dir.path), &error);
  ASSERT_TRUE(reopened.has_value()) << error;
  expect_same(reopened->engine(), reference(batches, next, 7), "after close mid-publish");
}

}  // namespace
