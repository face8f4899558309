// Binary trace format tests: lossless round-trip of ChurnGenerator output
// (abrupt-delete markers, unmutes, add-node neighbor lists), replay
// equivalence against the in-memory trace path, the checked replay's
// rejection of ops that cannot apply, batch chunking, and truncated /
// corrupt-file rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/dist_mis.hpp"
#include "graph/generators.hpp"
#include "support.hpp"
#include "util/binary_io.hpp"
#include "util/fault_file.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"
#include "workload/trace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace dmis;
using namespace dmis::workload;
using graph::NodeId;

using test::read_bytes;
using test::TempFile;
using test::write_bytes;

/// A self-contained trace exercising every op kind: the grow history of a
/// warm random graph followed by churn with unmutes and abrupt deletions —
/// replaying from an empty engine is valid at every position.
Trace rich_trace(NodeId n, std::size_t ops, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::DynamicGraph warm = graph::random_avg_degree(n, 6.0, rng);
  Trace trace = grow_trace(warm);
  ChurnConfig config;
  config.p_abrupt = 0.5;
  config.p_unmute = 0.3;
  ChurnGenerator gen(std::move(warm), config, seed + 1);
  const Trace churn = gen.generate(ops);
  trace.insert(trace.end(), churn.begin(), churn.end());
  return trace;
}

void expect_same_trace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "op " << i;
    EXPECT_EQ(a[i].u, b[i].u) << "op " << i;
    EXPECT_EQ(a[i].v, b[i].v) << "op " << i;
    EXPECT_EQ(a[i].neighbors, b[i].neighbors) << "op " << i;
  }
}

TEST(TraceFile, RoundTripPreservesEveryOpKind) {
  const Trace trace = rich_trace(300, 2500, 5);
  TempFile file("trace_rt.trc");
  std::string error;
  ASSERT_TRUE(TraceFile::save(file.path, trace, &error)) << error;
  for (const bool force_read : {false, true}) {
    TraceFile tf;
    ASSERT_TRUE(tf.open(file.path, &error, force_read)) << error;
    EXPECT_TRUE(tf.verify(&error)) << error;
    expect_same_trace(trace, tf.to_trace());
  }
}

TEST(TraceFile, EmptyTraceRoundTrips) {
  TempFile file("trace_empty.trc");
  ASSERT_TRUE(TraceFile::save(file.path, Trace{}));
  TraceFile tf;
  std::string error;
  ASSERT_TRUE(tf.open(file.path, &error)) << error;
  EXPECT_TRUE(tf.empty());
  EXPECT_TRUE(tf.verify(&error)) << error;
}

TEST(TraceFile, ReplayMatchesInMemoryReplay) {
  const Trace trace = rich_trace(200, 1500, 7);
  TempFile file("trace_replay.trc");
  ASSERT_TRUE(TraceFile::save(file.path, trace));
  TraceFile tf;
  ASSERT_TRUE(tf.open(file.path));

  core::CascadeEngine from_memory(3);
  replay(from_memory, trace);
  core::CascadeEngine from_file(3);
  tf.replay(from_file);
  EXPECT_TRUE(from_memory.graph() == from_file.graph());
  EXPECT_TRUE(from_memory.mis_set() == from_file.mis_set());
  from_file.verify();
}

TEST(TraceFile, ReplayIntoDistMisPreservesModes) {
  // Graceful/abrupt markers survive the binary round-trip; DistMis consumes
  // them through its mode-aware API, and the result must still match the
  // sequential oracle (verify checks exactly that).
  const Trace trace = rich_trace(60, 300, 8);
  TempFile file("trace_dist.trc");
  ASSERT_TRUE(TraceFile::save(file.path, trace));
  TraceFile tf;
  ASSERT_TRUE(tf.open(file.path));

  core::DistMis from_memory(4);
  replay(from_memory, trace);
  core::DistMis from_file(4);
  tf.replay(from_file);
  from_file.verify();
  EXPECT_TRUE(from_memory.mis_set() == from_file.mis_set());
}

TEST(TraceFile, MaterializeChecksEveryOp) {
  // A recorded churn trace replays, checked, to the graph its in-memory
  // twin builds.
  const Trace trace = rich_trace(300, 2500, 9);
  TempFile file("trace_checked.trc");
  std::string error;
  ASSERT_TRUE(TraceFile::save(file.path, trace, &error)) << error;
  TraceFile recorded;
  ASSERT_TRUE(recorded.open(file.path, &error)) << error;
  graph::DynamicGraph replayed;
  ASSERT_TRUE(recorded.materialize(replayed, &error)) << error;
  EXPECT_TRUE(replayed == materialize(recorded.to_trace()));

  // Each case is a structurally valid file (open() accepts it): nodes 0-2
  // with edge {0, 1}, then ops of which the one at `bad` cannot apply.
  const Trace prefix = {GraphOp::add_node(), GraphOp::add_node(), GraphOp::add_node(),
                        GraphOp::add_edge(0, 1)};
  struct Case {
    const char* what;
    Trace ops;
    std::size_t bad;
    const char* reason;
  };
  const Case cases[] = {
      {"self-loop", {GraphOp::add_edge(0, 0)}, 4, "self-loop on node 0"},
      {"self-loop removal", {GraphOp::remove_edge(1, 1)}, 4, "self-loop on node 1"},
      {"unknown endpoint", {GraphOp::add_edge(0, 7)}, 4, "node 7 is not live"},
      {"dead endpoint", {GraphOp::remove_node(2), GraphOp::add_edge(0, 2)}, 5,
       "node 2 is not live"},
      {"present edge added", {GraphOp::add_edge(1, 0)}, 4, "edge {1, 0} already present"},
      {"absent edge removed", {GraphOp::remove_edge(1, 2, true)}, 4, "edge {1, 2} absent"},
      {"unknown node removed", {GraphOp::remove_node(9)}, 4, "node 9 is not live"},
      {"dead node removed", {GraphOp::remove_node(2), GraphOp::remove_node(2)}, 5,
       "node 2 is not live"},
      {"dead add-node neighbor", {GraphOp::remove_node(2), GraphOp::add_node({0, 2})}, 5,
       "node 2 is not live"},
      {"repeated add-node neighbor", {GraphOp::unmute_node({1, 0, 1})}, 4,
       "neighbor 1 repeated"},
  };
  for (const Case& c : cases) {
    Trace bad = prefix;
    bad.insert(bad.end(), c.ops.begin(), c.ops.end());
    ASSERT_TRUE(TraceFile::save(file.path, bad, &error)) << c.what << ": " << error;
    TraceFile tf;
    ASSERT_TRUE(tf.open(file.path, &error)) << c.what << ": " << error;
    ASSERT_TRUE(tf.verify(&error)) << c.what << ": " << error;
    graph::DynamicGraph out(5);
    error.clear();
    EXPECT_FALSE(tf.materialize(out, &error)) << c.what;
    EXPECT_EQ(error.rfind("op " + std::to_string(c.bad) + ": ", 0), 0U)
        << c.what << ": " << error;
    EXPECT_NE(error.find(c.reason), std::string::npos) << c.what << ": " << error;
    EXPECT_EQ(out.node_count(), 5U) << c.what << ": a rejected replay leaves out alone";
  }
}

TEST(TraceFile, BatchChunkingMatchesChunkTrace) {
  const Trace trace = rich_trace(150, 1200, 9);
  TempFile file("trace_batch.trc");
  ASSERT_TRUE(TraceFile::save(file.path, trace));
  TraceFile tf;
  ASSERT_TRUE(tf.open(file.path));

  const std::size_t batch_size = 64;
  const std::vector<core::Batch> expected = chunk_trace(trace, batch_size);

  core::CascadeEngine a(12);
  for (const core::Batch& batch : expected) (void)core::apply_batch(a, batch);

  core::CascadeEngine b(12);
  core::Batch batch;
  for (std::size_t begin = 0; begin < tf.size(); begin += batch_size) {
    batch.clear();
    const std::size_t end = std::min(begin + batch_size, tf.size());
    append_to_batch(tf, begin, end, batch);
    (void)core::apply_batch(b, batch);
  }
  EXPECT_TRUE(a.graph() == b.graph());
  EXPECT_TRUE(a.mis_set() == b.mis_set());
  b.verify();
}

TEST(TraceFile, RejectsTruncatedAndCorruptFiles) {
  const Trace trace = rich_trace(80, 400, 10);
  TempFile file("trace_corrupt.trc");
  ASSERT_TRUE(TraceFile::save(file.path, trace));
  const std::vector<std::uint8_t> pristine = read_bytes(file.path);
  TraceFileHeader header{};
  std::memcpy(&header, pristine.data(), sizeof(header));

  const auto expect_rejected = [&](std::vector<std::uint8_t> bytes,
                                   const std::string& what) {
    write_bytes(file.path, bytes);
    TraceFile tf;
    std::string error;
    EXPECT_FALSE(tf.open(file.path, &error)) << what;
    EXPECT_FALSE(error.empty()) << what;
  };

  expect_rejected({pristine.begin(), pristine.begin() + 10}, "truncated header");
  expect_rejected({pristine.begin(), pristine.begin() + static_cast<long>(
                                         pristine.size() / 2)},
                  "truncated payload");
  {
    auto bytes = pristine;
    bytes[0] = 'X';
    expect_rejected(bytes, "bad magic");
  }
  {
    auto bytes = pristine;
    bytes[8] = 42;  // version
    expect_rejected(bytes, "bad version");
  }
  {
    auto bytes = pristine;
    bytes[13] = 0x99;  // endian tag (byte 12 is 0x04 in a valid LE header)
    expect_rejected(bytes, "endianness");
  }
  {
    // First record: blow up its nbr_count (offset 16 within the record).
    auto bytes = pristine;
    bytes[static_cast<std::size_t>(header.ops_off) + 16] = 0xFF;
    bytes[static_cast<std::size_t>(header.ops_off) + 17] = 0xFF;
    expect_rejected(bytes, "arena view out of bounds");
  }
  {
    // First record: invalid kind.
    auto bytes = pristine;
    bytes[static_cast<std::size_t>(header.ops_off)] = 200;
    expect_rejected(bytes, "unknown kind");
  }
}

TEST(TraceFile, ChecksumCatchesPayloadBitFlips) {
  const Trace trace = rich_trace(80, 400, 11);
  TempFile file("trace_sum.trc");
  ASSERT_TRUE(TraceFile::save(file.path, trace));
  std::vector<std::uint8_t> bytes = read_bytes(file.path);
  TraceFileHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));

  // Flip an edge endpoint in the middle of the op array: still structurally
  // valid (kind and arena views untouched) but the ops changed.
  const std::size_t mid = static_cast<std::size_t>(
      header.ops_off + (header.op_count / 2) * sizeof(TraceOpRecord) + 4);
  bytes[mid] ^= 1;
  write_bytes(file.path, bytes);

  TraceFile tf;
  std::string error;
  ASSERT_TRUE(tf.open(file.path, &error)) << error;
  EXPECT_FALSE(tf.verify(&error));
  EXPECT_NE(error.find("checksum"), std::string::npos);
}

TEST(TraceFile, WriterReproducesFrozenBytes) {
  // FNV-1a 64 of the whole file for a fixed seed, recorded from the stdio
  // writer that util::save_staged replaced: the layout is frozen.
  TempFile file("trace_pin.trc");
  std::string error;
  ASSERT_TRUE(TraceFile::save(file.path, rich_trace(300, 2500, 2019), &error)) << error;
  const std::vector<std::uint8_t> bytes = read_bytes(file.path);
  EXPECT_EQ(util::fnv1a64(bytes.data(), bytes.size()), 0x3f8c4017b189bc6eULL);
}

TEST(TraceFile, StagedWriterFaultsKeepThePublishedTrace) {
  // TraceFile::save's writer driven directly: util::save_staged with the
  // trace header and payload of a three-op trace, laid out by hand. Clean,
  // it writes exactly the bytes TraceFile::save does; failed at any byte or
  // at the fsync, the published trace stays byte-identical and no staging
  // file survives.
  const Trace trace = {GraphOp::add_node(), GraphOp::add_node({0}),
                       GraphOp::remove_edge(0, 1, /*abrupt=*/true)};
  std::vector<TraceOpRecord> records = {
      {static_cast<std::uint32_t>(OpKind::kAddNode), 0, 0, 0, 0, 0},
      {static_cast<std::uint32_t>(OpKind::kAddNode), 0, 0, 0, 1, 0},
      {static_cast<std::uint32_t>(OpKind::kRemoveEdgeAbrupt), 0, 1, 0, 0, 0}};
  const std::vector<NodeId> arena = {0};
  TraceFileHeader header{};
  std::memcpy(header.magic, kTraceMagic, sizeof(kTraceMagic));
  header.version = kTraceVersion;
  header.endian_tag = kTraceEndianTag;
  header.op_count = records.size();
  header.arena_len = arena.size();
  header.ops_off = sizeof(TraceFileHeader);
  header.arena_off = util::pad8(header.ops_off + records.size() * sizeof(TraceOpRecord));
  header.file_size = util::pad8(header.arena_off + arena.size() * sizeof(NodeId));
  const auto emit = [&](auto& w) {
    return w.write(records.data(), records.size() * sizeof(TraceOpRecord)) &&
           w.align8() && w.write(arena.data(), arena.size() * sizeof(NodeId)) &&
           w.align8();
  };

  TempFile saved("trace_staged_save.trc");
  TempFile file("trace_staged.trc");
  std::string error;
  ASSERT_TRUE(TraceFile::save(saved.path, trace, &error)) << error;
  ASSERT_TRUE(util::save_staged(file.path, header, emit, {}, &error)) << error;
  const std::vector<std::uint8_t> published = read_bytes(file.path);
  ASSERT_EQ(published, read_bytes(saved.path));
  ASSERT_EQ(published.size(), header.file_size);

  // The faulted saves would publish a different op.
  records[2].kind = static_cast<std::uint32_t>(OpKind::kRemoveEdgeGraceful);
  const std::string staging = file.path + ".tmp";
  const auto expect_failed_save = [&](const util::FaultPlan& plan,
                                      const std::string& what) {
    std::string fault;
    EXPECT_FALSE(
        util::save_staged(file.path, header, emit, util::faulty_factory(plan), &fault))
        << what;
    EXPECT_NE(fault.find(staging), std::string::npos) << what << ": " << fault;
    EXPECT_EQ(read_bytes(file.path), published) << what;
    EXPECT_FALSE(std::filesystem::exists(staging)) << what;
  };
  for (std::uint64_t budget = 0; budget < header.file_size; budget += 8) {
    util::FaultPlan plan;
    plan.write_budget = budget;
    expect_failed_save(plan, "write fails after " + std::to_string(budget) + " bytes");
  }
  util::FaultPlan no_sync;
  no_sync.sync_budget = 0;
  expect_failed_save(no_sync, "fsync fails");

  TraceFile tf;
  ASSERT_TRUE(tf.open(file.path, &error)) << error;
  EXPECT_TRUE(tf.verify(&error)) << error;
  expect_same_trace(trace, tf.to_trace());
}

}  // namespace
