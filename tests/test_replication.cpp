// Leader–follower replication, differentially checked the PR 5/6 way: a
// follower that tailed shipped WAL bytes (through drops, duplicates,
// reorders, torn shipments, local write faults, and process restarts on
// both ends) must be *identical* — graph, membership, MIS size, priority
// RNG state — to an in-memory reference engine fed the same batch prefix.
// Then the failover half: promote the follower, keep applying churn, and
// the promoted service must stay op-for-op equal to a leader that never
// crashed, and its directory must recover to the same state again.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "service/checkpoint.hpp"
#include "service/recovery.hpp"
#include "service/replication.hpp"
#include "service/service.hpp"
#include "support.hpp"
#include "util/fault_file.hpp"

namespace {

using namespace dmis;
using service::DirectTransport;
using service::FaultyTransport;
using service::FollowerOptions;
using service::FollowerService;
using service::FsyncPolicy;
using service::LogShipper;
using service::LogShipperOptions;
using service::MisService;
using service::ServiceConfig;
using service::TransportFaults;
using test::expect_same;
using test::make_stream;
using test::reference;
using test::TempDir;

ServiceConfig leader_config(const std::string& dir) {
  ServiceConfig config;
  config.dir = dir;
  config.priority_seed = 7;
  config.fsync = FsyncPolicy::kEveryBatch;
  config.segment_bytes = 16 << 10;  // force rotations so shipping chains segments
  return config;
}

FollowerOptions follower_options() {
  FollowerOptions options;
  options.priority_seed = 7;
  return options;
}

/// Pump the shipper and the follower until both report nothing left to do.
void settle(LogShipper& shipper, FollowerService& follower) {
  std::string error;
  ASSERT_TRUE(shipper.drain(&error)) << error;
  ASSERT_TRUE(follower.poll(&error)) << error;
}

TEST(Replication, LiveTailTracksLeaderAcrossRotations) {
  TempDir leader_dir("live_leader");
  TempDir follower_dir("live_follower");
  std::string error;

  auto leader = MisService::open(leader_config(leader_dir.path), &error);
  ASSERT_TRUE(leader.has_value()) << error;
  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;

  DirectTransport transport(&*follower);
  LogShipperOptions ship_options;
  ship_options.chunk_bytes = 1 << 10;  // small chunks: many shipments per segment
  LogShipper shipper(leader_dir.path, &transport, ship_options);
  shipper.attach_durable_cursor(&*leader);

  const auto batches = make_stream(501, 3000, 8);
  std::uint64_t ops = 0;
  for (const core::Batch& batch : batches) {
    ASSERT_TRUE(leader->apply(batch, &error)) << error;
    ops += batch.size();
    // Interleave shipping with ingest — the follower tails a *live*
    // segment, exercising refresh() growth and rotation advances.
    ASSERT_TRUE(shipper.drain(&error)) << error;
    ASSERT_TRUE(follower->poll(&error)) << error;
  }
  settle(shipper, *follower);

  ASSERT_TRUE(follower->has_engine());
  EXPECT_EQ(follower->applied_lsn(), ops);
  expect_same(follower->engine(), reference(batches, batches.size(), 7), "live tail");
  EXPECT_EQ(shipper.stats().rewinds, 0U);  // loss-free transport never rewinds
  EXPECT_GT(shipper.stats().delivered, 0U);
}

TEST(Replication, DurableCursorHoldsBackUnsyncedTail) {
  TempDir leader_dir("cursor_leader");
  TempDir follower_dir("cursor_follower");
  std::string error;

  ServiceConfig config = leader_config(leader_dir.path);
  config.fsync = FsyncPolicy::kInterval;  // batches land un-synced
  config.fsync_interval_records = 1u << 30;
  auto leader = MisService::open(config, &error);
  ASSERT_TRUE(leader.has_value()) << error;
  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;

  DirectTransport transport(&*follower);
  LogShipper shipper(leader_dir.path, &transport);
  shipper.attach_durable_cursor(&*leader);

  const auto batches = make_stream(502, 800, 8);
  for (const core::Batch& batch : batches) ASSERT_TRUE(leader->apply(batch, &error));
  ASSERT_TRUE(shipper.drain(&error)) << error;
  ASSERT_TRUE(follower->poll(&error)) << error;

  // Nothing was fsynced since the segment header: the follower must not
  // have applied ops the leader itself could lose in a crash.
  EXPECT_EQ(follower->applied_lsn(), leader->durable_lsn());
  EXPECT_LT(follower->applied_lsn(), leader->lsn());

  // After an explicit checkpoint (which syncs), the tail becomes durable
  // and ships.
  ASSERT_TRUE(leader->checkpoint(&error)) << error;
  settle(shipper, *follower);
  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "after durable catch-up");
}

TEST(Replication, CheckpointShipsAndWarmStartsFollower) {
  TempDir leader_dir("warm_leader");
  TempDir follower_dir("warm_follower");
  std::string error;

  // Leader runs alone first, checkpointing often enough that truncation
  // deletes the early segments — a late-joining follower cannot replay
  // from lsn 0 and MUST warm-start from the shipped checkpoint.
  ServiceConfig config = leader_config(leader_dir.path);
  config.checkpoint_interval_ops = 600;
  auto leader = MisService::open(config, &error);
  ASSERT_TRUE(leader.has_value()) << error;
  const auto batches = make_stream(503, 2500, 8);
  for (const core::Batch& batch : batches) ASSERT_TRUE(leader->apply(batch, &error));
  // Checkpoints publish and truncate in the background: sync() waits for
  // the last one, so the directory is in its post-truncation shape.
  ASSERT_TRUE(leader->sync(&error)) << error;
  ASSERT_GT(leader->last_checkpoint_lsn(), 0U);
  {
    bool has_base0 = false;
    for (const service::SegmentInfo& seg : service::list_segments(leader_dir.path))
      if (seg.base_lsn == 0) has_base0 = true;
    ASSERT_FALSE(has_base0) << "truncation should have deleted the base segment";
  }

  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  DirectTransport transport(&*follower);
  LogShipper shipper(leader_dir.path, &transport);
  shipper.attach_durable_cursor(&*leader);
  settle(shipper, *follower);

  ASSERT_TRUE(follower->has_engine());
  EXPECT_GE(follower->stats().rewarms, 1U);
  EXPECT_GE(follower->stats().checkpoints_published, 1U);
  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "warm-started follower");

  // The follower directory is a valid service directory in its own right:
  // plain recovery on it lands on the same state.
  leader.reset();
  follower.reset();
  service::RecoveryManager recovery(follower_dir.path, {.priority_seed = 7});
  service::RecoveryReport report;
  auto recovered = recovery.recover(&report, &error);
  ASSERT_TRUE(recovered.has_value()) << error;
  expect_same(*recovered, reference(batches, batches.size(), 7),
              "recovery of follower dir");
}

TEST(Replication, LaggingFollowerJumpsThroughNewerCheckpoint) {
  TempDir leader_dir("lag_leader");
  TempDir follower_dir("lag_follower");
  std::string error;

  ServiceConfig config = leader_config(leader_dir.path);
  config.segment_bytes = 2048;
  config.checkpoint_interval_ops = 500;
  auto leader = MisService::open(config, &error);
  ASSERT_TRUE(leader.has_value()) << error;
  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  DirectTransport transport(&*follower);
  LogShipper shipper(leader_dir.path, &transport);
  shipper.attach_durable_cursor(&*leader);

  const auto batches = make_stream(507, 3000, 8);
  std::size_t next = 0;
  while (leader->lsn() < 1000) ASSERT_TRUE(leader->apply(batches[next++], &error));
  settle(shipper, *follower);
  ASSERT_EQ(follower->applied_lsn(), 1000U);
  const std::uint64_t rewarms = follower->stats().rewarms;

  // Neither end runs while the leader checkpoints its way to lsn 3000,
  // truncating the segments the follower would need next. The follower
  // stalls at the end of its local chain and must warm through a newer
  // shipped checkpoint rather than wait forever.
  for (; next < batches.size(); ++next) ASSERT_TRUE(leader->apply(batches[next], &error));
  ASSERT_TRUE(leader->sync(&error)) << error;  // the last truncation has run
  settle(shipper, *follower);

  EXPECT_GT(follower->stats().rewarms, rewarms);
  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "lagging follower after the jump");
}

TEST(Replication, FollowerWarmedPastItsSegmentsJumpsAgain) {
  TempDir leader_dir("ahead_leader");
  TempDir follower_dir("ahead_follower");
  std::string error;

  ServiceConfig config = leader_config(leader_dir.path);
  config.segment_bytes = 2048;
  config.checkpoint_interval_ops = 500;
  auto leader = MisService::open(config, &error);
  ASSERT_TRUE(leader.has_value()) << error;
  const auto batches = make_stream(508, 3000, 8);
  std::size_t next = 0;
  while (leader->lsn() < 1000) ASSERT_TRUE(leader->apply(batches[next++], &error));
  ASSERT_TRUE(leader->sync(&error)) << error;  // a checkpoint to ship is on disk

  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  DirectTransport transport(&*follower);
  LogShipper shipper(leader_dir.path, &transport);
  shipper.attach_durable_cursor(&*leader);
  // Ship the checkpoint but no segment yet, and warm from it: no local
  // segment holds the follower's lsn.
  while (follower->stats().checkpoints_published == 0) (void)shipper.pump();
  ASSERT_TRUE(follower->poll(&error)) << error;
  ASSERT_EQ(follower->stats().rewarms, 1U);

  // The leader truncates past that lsn before its segment ships, so the
  // shipper re-plans from a newer checkpoint whose first segment starts
  // beyond it. Only another warm gets the follower going again.
  for (; next < batches.size(); ++next) ASSERT_TRUE(leader->apply(batches[next], &error));
  ASSERT_TRUE(leader->sync(&error)) << error;  // the truncation has run
  settle(shipper, *follower);

  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "follower re-warmed past a missing segment");
}

TEST(Replication, BothEndsRestartAndResumeFromHave) {
  TempDir leader_dir("resume_leader");
  TempDir follower_dir("resume_follower");
  std::string error;

  auto leader = MisService::open(leader_config(leader_dir.path), &error);
  ASSERT_TRUE(leader.has_value()) << error;
  const auto batches = make_stream(504, 2000, 8);
  const std::size_t half = batches.size() / 2;
  for (std::size_t i = 0; i < half; ++i) ASSERT_TRUE(leader->apply(batches[i], &error));

  // First shipping session: partial (bounded ticks), then both ends die.
  std::uint64_t persisted_before = 0;
  {
    auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
    ASSERT_TRUE(follower.has_value()) << error;
    DirectTransport transport(&*follower);
    LogShipperOptions ship_options;
    ship_options.chunk_bytes = 512;
    LogShipper shipper(leader_dir.path, &transport, ship_options);
    shipper.attach_durable_cursor(&*leader);
    for (int tick = 0; tick < 20; ++tick) (void)shipper.pump();
    ASSERT_TRUE(follower->poll(&error)) << error;
    persisted_before = follower->stats().bytes_persisted;
    // follower destroyed here: sink closed, partial files stay on disk
  }
  ASSERT_GT(persisted_before, 0U);

  for (std::size_t i = half; i < batches.size(); ++i)
    ASSERT_TRUE(leader->apply(batches[i], &error));

  // Second session: fresh shipper (offset 0) against a warm follower dir.
  // The first ack rewinds nothing and fast-forwards the shipper past
  // everything already persisted — history is not re-applied.
  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  DirectTransport transport(&*follower);
  LogShipper shipper(leader_dir.path, &transport);
  shipper.attach_durable_cursor(&*leader);
  settle(shipper, *follower);

  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "resumed across double restart");
  // The restarted shipper's very first segment chunk lands at offset 0
  // against a follower that has more — accepted as a duplicate no-op.
  EXPECT_GT(follower->stats().chunks_accepted, 0U);
}

TEST(Replication, FaultyTransportConvergesAndStaysExact) {
  // The differential fuzz: seeds × fault mixes, every combination must
  // converge to the exact reference state. Faults are deterministic per
  // seed, so any failure here replays.
  struct Mix {
    const char* name;
    TransportFaults faults;
  };
  const Mix mixes[] = {
      {"droppy", {.drop = 0.3, .duplicate = 0.0, .reorder = 0.0, .truncate = 0.0}},
      {"dupey", {.drop = 0.0, .duplicate = 0.4, .reorder = 0.0, .truncate = 0.0}},
      {"reordery", {.drop = 0.0, .duplicate = 0.0, .reorder = 0.4, .truncate = 0.0}},
      {"torn", {.drop = 0.0, .duplicate = 0.0, .reorder = 0.0, .truncate = 0.5}},
      {"storm", {.drop = 0.25, .duplicate = 0.25, .reorder = 0.25, .truncate = 0.25}},
  };
  for (const Mix& mix : mixes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::string where = std::string(mix.name) + "/seed" + std::to_string(seed);
      TempDir leader_dir("fuzz_leader");
      TempDir follower_dir("fuzz_follower");
      std::string error;

      ServiceConfig config = leader_config(leader_dir.path);
      config.checkpoint_interval_ops = 700;  // checkpoints ship through faults too
      auto leader = MisService::open(config, &error);
      ASSERT_TRUE(leader.has_value()) << error;
      auto follower =
          FollowerService::open(follower_dir.path, follower_options(), &error);
      ASSERT_TRUE(follower.has_value()) << error;

      DirectTransport direct(&*follower);
      TransportFaults faults = mix.faults;
      faults.seed = seed * 7919;
      FaultyTransport transport(&direct, faults);
      LogShipperOptions ship_options;
      ship_options.chunk_bytes = 1 << 10;
      LogShipper shipper(leader_dir.path, &transport, ship_options);
      shipper.attach_durable_cursor(&*leader);

      const auto batches = make_stream(505 + seed, 2000, 8);
      for (const core::Batch& batch : batches) {
        ASSERT_TRUE(leader->apply(batch, &error)) << where << ": " << error;
        // The shipper sees each checkpoint published and truncated behind,
        // so the shipment sequence, and the seeded faults on it, replay.
        ASSERT_TRUE(leader->sync(&error)) << where << ": " << error;
        ASSERT_TRUE(shipper.drain(&error)) << where << ": " << error;
        ASSERT_TRUE(follower->poll(&error)) << where << ": " << error;
      }
      ASSERT_TRUE(shipper.drain(&error)) << where << ": " << error;
      ASSERT_TRUE(follower->poll(&error)) << where << ": " << error;

      EXPECT_EQ(follower->applied_lsn(), leader->lsn()) << where;
      expect_same(follower->engine(), reference(batches, batches.size(), 7), where);
    }
  }
}

TEST(Replication, FollowerLocalWriteFaultsForceReshipNotCorruption) {
  TempDir leader_dir("sinkfault_leader");
  TempDir follower_dir("sinkfault_follower");
  std::string error;

  auto leader = MisService::open(leader_config(leader_dir.path), &error);
  ASSERT_TRUE(leader.has_value()) << error;

  // Every 3rd file the follower opens fails after a 700-byte short write —
  // the shipped prefix survives, the suffix is re-shipped via `have`.
  util::FaultPlan plan;
  plan.write_budget = 700;
  plan.short_write = true;
  FollowerOptions options = follower_options();
  options.file_factory = util::faulty_factory(plan, 2, util::open_appendable);
  auto follower = FollowerService::open(follower_dir.path, options, &error);
  ASSERT_TRUE(follower.has_value()) << error;

  DirectTransport transport(&*follower);
  LogShipperOptions ship_options;
  ship_options.chunk_bytes = 512;
  LogShipper shipper(leader_dir.path, &transport, ship_options);
  shipper.attach_durable_cursor(&*leader);

  const auto batches = make_stream(506, 1500, 8);
  for (const core::Batch& batch : batches) {
    ASSERT_TRUE(leader->apply(batch, &error)) << error;
    ASSERT_TRUE(shipper.drain(&error)) << error;
    ASSERT_TRUE(follower->poll(&error)) << error;
  }
  settle(shipper, *follower);

  EXPECT_GT(follower->stats().receive_errors, 0U);
  EXPECT_EQ(follower->applied_lsn(), leader->lsn());
  expect_same(follower->engine(), reference(batches, batches.size(), 7),
              "through local write faults");
}

TEST(Replication, FailoverPromotesAndContinuesOpForOp) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string where = "failover/seed" + std::to_string(seed);
    TempDir leader_dir("failover_leader");
    TempDir follower_dir("failover_follower");
    std::string error;

    auto leader = MisService::open(leader_config(leader_dir.path), &error);
    ASSERT_TRUE(leader.has_value()) << error;
    auto follower =
        FollowerService::open(follower_dir.path, follower_options(), &error);
    ASSERT_TRUE(follower.has_value()) << error;

    DirectTransport direct(&*follower);
    TransportFaults faults;
    faults.drop = 0.2;
    faults.duplicate = 0.2;
    faults.reorder = 0.2;
    faults.truncate = 0.2;
    faults.seed = seed * 104729;
    FaultyTransport transport(&direct, faults);
    LogShipperOptions ship_options;
    ship_options.chunk_bytes = 1 << 10;
    LogShipper shipper(leader_dir.path, &transport, ship_options);
    shipper.attach_durable_cursor(&*leader);

    const auto batches = make_stream(600 + seed, 2400, 8);
    const std::size_t crash_at = batches.size() / 2;
    std::uint64_t crash_lsn = 0;
    for (std::size_t i = 0; i < crash_at; ++i) {
      ASSERT_TRUE(leader->apply(batches[i], &error)) << where << ": " << error;
      crash_lsn += batches[i].size();
      ASSERT_TRUE(shipper.drain(&error)) << where << ": " << error;
    }

    // Leader dies mid-ingest. Its disk is the recovery truth now: detach
    // the durable cursor and drain whatever the dead leader's directory
    // holds through the still-faulty link.
    leader.reset();
    shipper.detach_durable_cursor();
    ASSERT_TRUE(shipper.drain(&error)) << where << ": " << error;
    ASSERT_TRUE(follower->poll(&error)) << where << ": " << error;
    ASSERT_EQ(follower->applied_lsn(), crash_lsn) << where;

    // Promote: the follower becomes a serving leader in its own directory.
    auto promoted = follower->promote(leader_config(follower_dir.path), &error);
    ASSERT_TRUE(promoted.has_value()) << where << ": " << error;
    EXPECT_EQ(promoted->lsn(), crash_lsn) << where;
    expect_same(promoted->engine(), reference(batches, crash_at, 7),
                where + ": at promotion");

    // Continued churn after promotion is op-for-op equal to a leader that
    // never crashed (the RNG-state check above is what guarantees this).
    core::CascadeEngine never_crashed = reference(batches, batches.size(), 7);
    for (std::size_t i = crash_at; i < batches.size(); ++i)
      ASSERT_TRUE(promoted->apply(batches[i], &error)) << where << ": " << error;
    expect_same(promoted->engine(), never_crashed, where + ": after promotion");

    // And the promoted directory — shipped files + re-based WAL — recovers.
    ASSERT_TRUE(promoted->checkpoint(&error)) << where << ": " << error;
    promoted.reset();
    auto reopened = MisService::open(leader_config(follower_dir.path), &error);
    ASSERT_TRUE(reopened.has_value()) << where << ": " << error;
    expect_same(reopened->engine(), never_crashed, where + ": recovery after failover");
  }
}

TEST(Replication, PromoteWithNothingShippedServesFromEmpty) {
  TempDir follower_dir("empty_promote");
  std::string error;
  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  auto promoted = follower->promote(leader_config(follower_dir.path), &error);
  ASSERT_TRUE(promoted.has_value()) << error;
  EXPECT_EQ(promoted->lsn(), 0U);
  const auto batches = make_stream(700, 400, 8);
  for (const core::Batch& batch : batches)
    ASSERT_TRUE(promoted->apply(batch, &error)) << error;
  expect_same(promoted->engine(), reference(batches, batches.size(), 7),
              "cold promoted service");
}

TEST(Replication, PromoteRemovesAPartialCheckpointShipment) {
  TempDir leader_dir("ship_leader");
  TempDir follower_dir("ship_follower");
  std::string error;
  auto leader = MisService::open(leader_config(leader_dir.path), &error);
  ASSERT_TRUE(leader.has_value()) << error;
  for (const core::Batch& batch : make_stream(811, 400, 8))
    ASSERT_TRUE(leader->apply(batch, &error)) << error;
  ASSERT_TRUE(leader->checkpoint(&error)) << error;
  const std::uint64_t lsn = leader->lsn();
  const std::vector<std::uint8_t> bytes =
      test::read_bytes(service::checkpoint_path(leader_dir.path, lsn));
  ASSERT_GT(bytes.size(), 2U);

  // The link died mid-checkpoint: only the first half arrived, staged
  // under the shipment suffix.
  auto follower = FollowerService::open(follower_dir.path, follower_options(), &error);
  ASSERT_TRUE(follower.has_value()) << error;
  service::Shipment chunk;
  chunk.kind = service::Shipment::Kind::kCheckpoint;
  chunk.id = lsn;
  chunk.file_size = bytes.size();
  chunk.bytes.assign(bytes.begin(), bytes.begin() + static_cast<long>(bytes.size() / 2));
  EXPECT_EQ(follower->receive(chunk).have, bytes.size() / 2);
  const std::string partial =
      service::checkpoint_path(follower_dir.path, lsn) + service::kShipSuffix;
  ASSERT_TRUE(std::filesystem::exists(partial));

  // The promoted service never reads the partial, so it must not keep it.
  auto promoted = follower->promote(leader_config(follower_dir.path), &error);
  ASSERT_TRUE(promoted.has_value()) << error;
  EXPECT_EQ(promoted->lsn(), 0U);
  EXPECT_FALSE(std::filesystem::exists(partial));
  EXPECT_NE(promoted->recovery().detail.find("removed staging file: " + partial),
            std::string::npos)
      << promoted->recovery().detail;
}

}  // namespace
