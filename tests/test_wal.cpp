// WAL framing under fire: round-trips, segment rotation + seal markers,
// and — through util::FaultFile — the on-disk states a crash actually
// leaves behind: a record torn at an arbitrary byte, a dropped append, a
// failed fsync. The contract (service/wal.hpp, docs/FORMATS.md): a reader
// yields exactly the valid record prefix and classifies the tail
// (kSealed / kEnd / kTorn); a writer whose write or fsync failed is
// poisoned and never advances durable_lsn past what a sync vouched for.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "service/wal.hpp"
#include "support.hpp"
#include "util/binary_io.hpp"
#include "util/fault_file.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dmis;
using service::FsyncPolicy;
using service::WalRecordView;
using service::WalSegmentReader;
using service::WalWriter;
using service::WalWriterOptions;

using test::TempDir;

/// A deterministic mixed batch: edges, removals, add-nodes with neighbor
/// lists (the arena path).
core::Batch make_batch(util::Rng& rng, std::uint32_t ops) {
  core::Batch batch;
  std::vector<graph::NodeId> nbrs;
  for (std::uint32_t i = 0; i < ops; ++i) {
    const auto kind = static_cast<core::BatchOp::Kind>(rng.next_u64() % 4);
    nbrs.clear();
    graph::NodeId u = 0;
    graph::NodeId v = 0;
    if (kind == core::BatchOp::Kind::kAddNode) {
      nbrs.resize(rng.next_u64() % 5);
      for (auto& w : nbrs) w = static_cast<graph::NodeId>(rng.below(1000));
    } else {
      u = static_cast<graph::NodeId>(rng.below(1000));
      v = kind == core::BatchOp::Kind::kRemoveNode ? u
                                                   : static_cast<graph::NodeId>(rng.below(1000));
    }
    batch.append(kind, u, v, nbrs);
  }
  return batch;
}

/// Drain one segment; returns terminal state and appends flattened op
/// tuples (kind, u, v, neighbor ids) so tests can compare against the
/// batches they wrote.
WalSegmentReader::Next drain(const std::string& seg_path,
                             std::vector<std::uint64_t>* flat,
                             std::uint64_t* first_lsn = nullptr,
                             std::uint64_t* end_lsn = nullptr) {
  WalSegmentReader reader;
  std::string error;
  EXPECT_TRUE(reader.open(seg_path, &error)) << error;
  WalRecordView view;
  WalSegmentReader::Next state;
  bool first = true;
  while ((state = reader.next(&view)) == WalSegmentReader::Next::kRecord) {
    if (first && first_lsn != nullptr) *first_lsn = view.lsn;
    first = false;
    if (flat != nullptr) {
      for (const service::WalOpRecord& op : view.ops) {
        flat->push_back(op.kind);
        flat->push_back(op.u);
        flat->push_back(op.v);
        for (std::uint32_t k = 0; k < op.nbr_count; ++k)
          flat->push_back(view.arena[op.nbr_begin + k]);
      }
    }
  }
  if (end_lsn != nullptr) *end_lsn = reader.next_lsn();
  return state;
}

/// The writer-side flattening of a batch, same encoding as drain().
void flatten(const core::Batch& batch, std::vector<std::uint64_t>* flat) {
  for (const core::BatchOp& op : batch.ops()) {
    flat->push_back(static_cast<std::uint64_t>(op.kind));
    flat->push_back(op.u);
    flat->push_back(op.v);
    for (const graph::NodeId v : batch.neighbors_of(op)) flat->push_back(v);
  }
}

TEST(Wal, ParseFsyncPolicyNamesEachPolicy) {
  FsyncPolicy policy = FsyncPolicy::kEveryBatch;
  ASSERT_TRUE(service::parse_fsync_policy("everyop", policy));
  EXPECT_EQ(policy, FsyncPolicy::kEveryOp);
  ASSERT_TRUE(service::parse_fsync_policy("interval", policy));
  EXPECT_EQ(policy, FsyncPolicy::kInterval);
  ASSERT_TRUE(service::parse_fsync_policy("everybatch", policy));
  EXPECT_EQ(policy, FsyncPolicy::kEveryBatch);
  EXPECT_FALSE(service::parse_fsync_policy("EveryOp", policy));
  EXPECT_FALSE(service::parse_fsync_policy("", policy));
  EXPECT_EQ(policy, FsyncPolicy::kEveryBatch);
}

TEST(Wal, RoundTripSingleSegment) {
  TempDir dir("roundtrip");
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(dir.path, 1, 0, {}, &error)) << error;

  util::Rng rng(7);
  std::vector<std::uint64_t> expect;
  std::uint64_t ops = 0;
  for (int b = 0; b < 20; ++b) {
    const core::Batch batch = make_batch(rng, 1 + b % 7);
    flatten(batch, &expect);
    ops += batch.size();
    ASSERT_TRUE(writer.append(batch, &error)) << error;
    EXPECT_EQ(writer.next_lsn(), ops);
    EXPECT_EQ(writer.durable_lsn(), ops);  // kEveryBatch default syncs per record
  }
  ASSERT_TRUE(writer.close(&error)) << error;

  std::vector<std::uint64_t> got;
  std::uint64_t end_lsn = 0;
  const auto state = drain(service::segment_path(dir.path, 1), &got, nullptr, &end_lsn);
  EXPECT_EQ(state, WalSegmentReader::Next::kSealed);
  EXPECT_EQ(end_lsn, ops);
  EXPECT_EQ(got, expect);
}

TEST(Wal, EveryOpSplitsRecords) {
  TempDir dir("everyop");
  WalWriter writer;
  WalWriterOptions options;
  options.fsync = FsyncPolicy::kEveryOp;
  std::string error;
  ASSERT_TRUE(writer.open(dir.path, 1, 0, options, &error)) << error;
  util::Rng rng(11);
  const core::Batch batch = make_batch(rng, 9);
  for (std::size_t i = 0; i < batch.size(); ++i)
    ASSERT_TRUE(writer.append(batch, i, 1, &error)) << error;
  ASSERT_TRUE(writer.close(&error)) << error;

  WalSegmentReader reader;
  ASSERT_TRUE(reader.open(service::segment_path(dir.path, 1), &error)) << error;
  WalRecordView view;
  std::uint64_t records = 0;
  while (reader.next(&view) == WalSegmentReader::Next::kRecord) {
    EXPECT_EQ(view.ops.size(), 1U);
    EXPECT_EQ(view.lsn, records);
    ++records;
  }
  EXPECT_EQ(records, batch.size());
}

/// A fixed valid op stream holding every op kind — add-nodes with and
/// without neighbor lists, an unmute, edge adds, graceful and abrupt edge
/// and node removals — in batches of four, built by workload::chunk_trace.
std::vector<core::Batch> pinned_stream() {
  using workload::GraphOp;
  const workload::Trace trace = {
      GraphOp::add_node(),             // 0
      GraphOp::add_node({0}),          // 1
      GraphOp::add_node({0, 1}),       // 2
      GraphOp::unmute_node({2}),       // 3
      GraphOp::add_edge(1, 3),
      GraphOp::remove_edge(0, 2),
      GraphOp::add_node({3, 1, 0}),    // 4
      GraphOp::remove_node(2),
      GraphOp::remove_edge(1, 0, /*abrupt=*/true),
      GraphOp::add_edge(0, 3),
      GraphOp::remove_node(4, /*abrupt=*/true),
      GraphOp::add_node(),             // 5
      GraphOp::add_edge(5, 1),
      GraphOp::add_node({5, 3}),       // 6
  };
  return workload::chunk_trace(trace, 4);
}

/// FNV-1a over the bytes of every segment in `dir`, in seq order.
std::uint64_t segments_hash(const std::string& dir) {
  std::uint64_t h = util::kFnv1aSeed;
  for (const service::SegmentInfo& seg : service::list_segments(dir)) {
    const std::vector<std::uint8_t> bytes = test::read_bytes(seg.path);
    h = util::fnv1a64(bytes.data(), bytes.size(), h);
  }
  return h;
}

TEST(Wal, PinnedStreamKeepsItsBytes) {
  // The hashes pin the segment bytes of every op kind under both record
  // shapes (one record per batch, one per op): how batches are built and
  // encoded may change, the bytes may not.
  const std::vector<core::Batch> stream = pinned_stream();
  for (const FsyncPolicy policy : {FsyncPolicy::kEveryBatch, FsyncPolicy::kEveryOp}) {
    TempDir dir("pinned");
    WalWriterOptions options;
    options.fsync = policy;
    options.segment_bytes = 256;  // rotate, so seals and headers are pinned too
    WalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(dir.path, 1, 0, options, &error)) << error;
    for (const core::Batch& batch : stream) {
      if (policy == FsyncPolicy::kEveryOp) {
        // One record per op, as MisService logs under kEveryOp.
        for (std::size_t i = 0; i < batch.size(); ++i)
          ASSERT_TRUE(writer.append(batch, i, 1, &error)) << error;
      } else {
        ASSERT_TRUE(writer.append(batch, &error)) << error;
      }
    }
    ASSERT_TRUE(writer.close(&error)) << error;
    EXPECT_EQ(writer.next_lsn(), 14U);
    EXPECT_GT(service::list_segments(dir.path).size(), 1U);
    EXPECT_EQ(segments_hash(dir.path), policy == FsyncPolicy::kEveryBatch
                                           ? 0x46330b291c3c8e9dULL
                                           : 0x06596980ce012bd2ULL);
  }
}

TEST(Wal, RotationSealsAndChainsSegments) {
  TempDir dir("rotate");
  WalWriter writer;
  WalWriterOptions options;
  options.segment_bytes = 512;  // force frequent rotation
  std::string error;
  ASSERT_TRUE(writer.open(dir.path, 1, 0, options, &error)) << error;

  util::Rng rng(13);
  std::vector<std::uint64_t> expect;
  std::uint64_t ops = 0;
  for (int b = 0; b < 40; ++b) {
    const core::Batch batch = make_batch(rng, 1 + b % 5);
    flatten(batch, &expect);
    ops += batch.size();
    ASSERT_TRUE(writer.append(batch, &error)) << error;
  }
  ASSERT_TRUE(writer.close(&error)) << error;

  const auto segments = service::list_segments(dir.path);
  ASSERT_GT(segments.size(), 2U);
  std::vector<std::uint64_t> got;
  std::uint64_t expected_base = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i].seq, i + 1);  // contiguous seqs
    EXPECT_EQ(segments[i].base_lsn, expected_base);
    std::uint64_t end_lsn = 0;
    const auto state = drain(segments[i].path, &got, nullptr, &end_lsn);
    EXPECT_EQ(state, WalSegmentReader::Next::kSealed);  // every segment sealed
    expected_base = end_lsn;
  }
  EXPECT_EQ(expected_base, ops);
  EXPECT_EQ(got, expect);
}

TEST(Wal, TornWriteKeepsValidPrefix) {
  // Tear the log at every byte of the final record: whatever the cut
  // point, the reader must yield the full prefix and flag the tail.
  util::Rng rng(17);
  for (const std::uint64_t cut_back : {1ULL, 3ULL, 8ULL, 19ULL, 31ULL}) {
    TempDir dir("torn");
    // First find the clean size with 3 records, then replay with a write
    // budget that tears the last record `cut_back` bytes short.
    std::uint64_t clean_bytes = 0;
    std::vector<core::Batch> batches;
    for (int b = 0; b < 3; ++b) batches.push_back(make_batch(rng, 4));
    {
      TempDir probe("torn_probe");
      WalWriter writer;
      std::string error;
      ASSERT_TRUE(writer.open(probe.path, 1, 0, {}, &error)) << error;
      for (const auto& batch : batches) ASSERT_TRUE(writer.append(batch, &error));
      clean_bytes = writer.bytes_appended();
    }
    util::FaultPlan plan;
    plan.write_budget = clean_bytes - cut_back;
    plan.short_write = true;
    WalWriterOptions options;
    options.file_factory = util::faulty_factory(plan);
    WalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(dir.path, 1, 0, options, &error)) << error;
    std::uint64_t ok_ops = 0;
    bool failed = false;
    for (const auto& batch : batches) {
      if (!writer.append(batch, &error)) {
        failed = true;
        break;
      }
      ok_ops += batch.size();
    }
    ASSERT_TRUE(failed);
    EXPECT_EQ(writer.durable_lsn(), ok_ops);  // each prior batch was synced
    // Writer is poisoned from here on.
    EXPECT_FALSE(writer.append(batches[0], &error));
    EXPECT_FALSE(writer.sync(&error));

    std::vector<std::uint64_t> got;
    std::uint64_t end_lsn = 0;
    const auto state = drain(service::segment_path(dir.path, 1), &got, nullptr, &end_lsn);
    EXPECT_EQ(state, WalSegmentReader::Next::kTorn);
    EXPECT_EQ(end_lsn, ok_ops);  // exactly the records before the tear
    std::vector<std::uint64_t> expect;
    std::uint64_t seen = 0;
    for (const auto& batch : batches) {
      if (seen + batch.size() > ok_ops) break;
      flatten(batch, &expect);
      seen += batch.size();
    }
    EXPECT_EQ(got, expect);
  }
}

TEST(Wal, DroppedAppendLeavesCleanEnd) {
  // short_write = false models a crash before the record's first byte
  // lands: the segment simply ends after the previous record — kEnd (an
  // unsealed tail), not kTorn.
  TempDir dir("dropped");
  util::Rng rng(19);
  const core::Batch b1 = make_batch(rng, 4);
  const core::Batch b2 = make_batch(rng, 4);
  std::uint64_t first_bytes = 0;
  {
    TempDir probe("dropped_probe");
    WalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(probe.path, 1, 0, {}, &error)) << error;
    ASSERT_TRUE(writer.append(b1, &error));
    first_bytes = writer.bytes_appended();
  }
  util::FaultPlan plan;
  plan.write_budget = first_bytes;
  plan.short_write = false;
  WalWriterOptions options;
  options.file_factory = util::faulty_factory(plan);
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(dir.path, 1, 0, options, &error)) << error;
  ASSERT_TRUE(writer.append(b1, &error));
  EXPECT_FALSE(writer.append(b2, &error));
  EXPECT_NE(error.find("errno"), std::string::npos) << error;  // errno context

  std::uint64_t end_lsn = 0;
  const auto state = drain(service::segment_path(dir.path, 1), nullptr, nullptr, &end_lsn);
  EXPECT_EQ(state, WalSegmentReader::Next::kEnd);
  EXPECT_EQ(end_lsn, b1.size());
}

TEST(Wal, FailedFsyncPoisonsWriterAndHoldsDurableLsn) {
  TempDir dir("fsync");
  util::FaultPlan plan;
  plan.sync_budget = 2;  // header sync + first record sync succeed
  WalWriterOptions options;
  options.file_factory = util::faulty_factory(plan);
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(dir.path, 1, 0, options, &error)) << error;
  util::Rng rng(23);
  const core::Batch batch = make_batch(rng, 3);
  ASSERT_TRUE(writer.append(batch, &error)) << error;
  EXPECT_EQ(writer.durable_lsn(), batch.size());
  // Second record's fsync fails: durable_lsn must not move, and the
  // writer must refuse everything afterwards.
  EXPECT_FALSE(writer.append(batch, &error));
  EXPECT_EQ(writer.durable_lsn(), batch.size());
  EXPECT_FALSE(writer.sync(&error));
  EXPECT_FALSE(writer.append(batch, &error));
  EXPECT_FALSE(writer.close(&error));
}

TEST(Wal, CorruptionDetectedByCrc) {
  TempDir dir("crc");
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(dir.path, 1, 0, {}, &error)) << error;
  util::Rng rng(29);
  std::uint64_t ops = 0;
  for (int b = 0; b < 6; ++b) {
    const core::Batch batch = make_batch(rng, 4);
    ops += batch.size();
    ASSERT_TRUE(writer.append(batch, &error));
  }
  ASSERT_TRUE(writer.close(&error));

  const std::string seg = service::segment_path(dir.path, 1);
  std::vector<char> bytes;
  {
    std::ifstream is(seg, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  // Flip one payload byte anywhere past the segment header: the reader
  // must stop at (or before) the corrupt record, never crash, and never
  // return a record containing the flipped byte as valid op data beyond
  // CRC detection. Run a spread of positions.
  for (int trial = 0; trial < 64; ++trial) {
    auto mutated = bytes;
    const std::size_t at =
        sizeof(service::WalSegmentHeader) +
        static_cast<std::size_t>(rng.next_u64() %
                                 (bytes.size() - sizeof(service::WalSegmentHeader)));
    mutated[at] = static_cast<char>(mutated[at] ^ (1 << (rng.next_u64() % 8)));
    {
      std::ofstream os(seg, std::ios::binary | std::ios::trunc);
      os.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    std::uint64_t end_lsn = 0;
    const auto state = drain(seg, nullptr, nullptr, &end_lsn);
    EXPECT_TRUE(state == WalSegmentReader::Next::kTorn ||
                state == WalSegmentReader::Next::kSealed);
    EXPECT_LE(end_lsn, ops);
    if (state == WalSegmentReader::Next::kSealed) {
      // The flip landed in dead padding ... impossible: padding is CRC'd?
      // Padding bytes are NOT covered by the CRC, so a flip there is
      // invisible — the stream must then be complete.
      EXPECT_EQ(end_lsn, ops);
    }
  }
}

TEST(Wal, TruncationNeverCrashesReader) {
  TempDir dir("trunc");
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(dir.path, 1, 0, {}, &error)) << error;
  util::Rng rng(31);
  for (int b = 0; b < 4; ++b) ASSERT_TRUE(writer.append(make_batch(rng, 3), &error));
  ASSERT_TRUE(writer.close(&error));
  const std::string seg = service::segment_path(dir.path, 1);
  std::vector<char> bytes;
  {
    std::ifstream is(seg, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    {
      std::ofstream os(seg, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    WalSegmentReader reader;
    std::string open_error;
    if (!reader.open(seg, &open_error)) {
      EXPECT_LT(keep, sizeof(service::WalSegmentHeader));
      continue;
    }
    WalRecordView view;
    WalSegmentReader::Next state;
    while ((state = reader.next(&view)) == WalSegmentReader::Next::kRecord) {
    }
    EXPECT_NE(state, WalSegmentReader::Next::kSealed)
        << "strict prefix cannot contain the seal";
  }
}

TEST(Wal, ListSegmentsSkipsAlienFiles) {
  TempDir dir("list");
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(dir.path, 3, 100, {}, &error)) << error;
  ASSERT_TRUE(writer.close(&error));
  {
    std::ofstream os(dir.path + "/wal-junk.seg", std::ios::binary);
    os << "not a segment";
  }
  {
    std::ofstream os(dir.path + "/notes.txt");
    os << "hello";
  }
  std::vector<std::string> skipped;
  const auto segments = service::list_segments(dir.path, &skipped);
  ASSERT_EQ(segments.size(), 1U);
  EXPECT_EQ(segments[0].seq, 3U);
  EXPECT_EQ(segments[0].base_lsn, 100U);
  EXPECT_EQ(skipped.size(), 1U);  // junk .seg reported, notes.txt ignored
}

TEST(Wal, RefreshFollowsLiveSegmentThroughGrowthAndSeal) {
  // Tail-follow: a reader holds a live segment open while the writer keeps
  // appending. refresh() picks up growth, is a no-op without growth, and a
  // seal, once seen, is permanent.
  TempDir dir("refresh");
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(dir.path, 1, 0, {}, &error)) << error;
  util::Rng rng(23);
  const core::Batch first = make_batch(rng, 5);
  ASSERT_TRUE(writer.append(first, &error)) << error;

  WalSegmentReader reader;
  ASSERT_TRUE(reader.open(service::segment_path(dir.path, 1), &error)) << error;
  WalRecordView view;
  std::uint64_t ops_seen = 0;
  while (reader.next(&view) == WalSegmentReader::Next::kRecord)
    ops_seen += view.ops.size();
  EXPECT_EQ(ops_seen, first.size());
  EXPECT_FALSE(reader.refresh(&error)) << "no growth yet";

  const core::Batch second = make_batch(rng, 7);
  ASSERT_TRUE(writer.append(second, &error)) << error;
  ASSERT_TRUE(reader.refresh(&error)) << error;
  while (reader.next(&view) == WalSegmentReader::Next::kRecord)
    ops_seen += view.ops.size();
  EXPECT_EQ(ops_seen, first.size() + second.size());
  EXPECT_EQ(reader.next_lsn(), ops_seen);

  ASSERT_TRUE(writer.close(&error)) << error;  // writes the seal marker
  ASSERT_TRUE(reader.refresh(&error)) << error;
  EXPECT_EQ(reader.next(&view), WalSegmentReader::Next::kSealed);
  EXPECT_FALSE(reader.refresh(&error)) << "sealed is terminal";
  EXPECT_EQ(reader.next(&view), WalSegmentReader::Next::kSealed);
}

TEST(Wal, RefreshHealsTornTailOnceBytesArrive) {
  // The log-shipping shape: the follower's copy ends mid-record (a torn
  // shipment), then the missing suffix arrives as an append. refresh()
  // must rescan from the same byte position — the acked record prefix is
  // untouched — and yield the completed record.
  TempDir full_dir("refresh_full");
  std::string error;
  std::uint64_t ops = 0;
  {
    WalWriter writer;
    ASSERT_TRUE(writer.open(full_dir.path, 1, 0, {}, &error)) << error;
    util::Rng rng(29);
    for (int b = 0; b < 6; ++b) {
      const core::Batch batch = make_batch(rng, 4 + b);
      ops += batch.size();
      ASSERT_TRUE(writer.append(batch, &error)) << error;
    }
    ASSERT_TRUE(writer.close(&error)) << error;
  }
  std::vector<char> bytes;
  {
    std::ifstream is(service::segment_path(full_dir.path, 1), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 200U);

  for (const std::size_t cut_back : {45U, 90U, 170U}) {
    TempDir dir("refresh_torn");
    const std::string path = service::segment_path(dir.path, 1);
    const std::size_t cut = bytes.size() - cut_back;
    {
      std::ofstream os(path, std::ios::binary);
      os.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    WalSegmentReader reader;
    ASSERT_TRUE(reader.open(path, &error)) << error;
    WalRecordView view;
    std::uint64_t ops_before = 0;
    WalSegmentReader::Next state;
    while ((state = reader.next(&view)) == WalSegmentReader::Next::kRecord)
      ops_before += view.ops.size();
    ASSERT_NE(state, WalSegmentReader::Next::kSealed);
    ASSERT_LT(ops_before, ops);
    const std::uint64_t resume_lsn = reader.next_lsn();

    // The rest of the file arrives (append — the prefix is never rewritten).
    {
      std::ofstream os(path, std::ios::binary | std::ios::app);
      os.write(bytes.data() + cut, static_cast<std::streamsize>(bytes.size() - cut));
    }
    ASSERT_TRUE(reader.refresh(&error)) << error;
    std::uint64_t ops_after = ops_before;
    bool first = true;
    while ((state = reader.next(&view)) == WalSegmentReader::Next::kRecord) {
      if (first) {
        EXPECT_EQ(view.lsn, resume_lsn) << "resumed past or before the tear";
      }
      first = false;
      ops_after += view.ops.size();
    }
    EXPECT_EQ(state, WalSegmentReader::Next::kSealed);
    EXPECT_EQ(ops_after, ops);
  }
}

}  // namespace
