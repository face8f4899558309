// Snapshot round-trip and rejection tests: save → mmap-load → compare
// (graph equality, MIS equality, engine-state equivalence under continued
// churn) plus truncated / corrupt-header / corrupt-payload rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/async_mis.hpp"
#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/dist_mis.hpp"
#include "core/engine_snapshot.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "support.hpp"
#include "util/binary_io.hpp"
#include "util/fault_file.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dmis;
using graph::DynamicGraph;
using graph::NodeId;
using graph::Snapshot;

using test::churned_graph;
using test::read_bytes;
using test::TempFile;
using test::write_bytes;

void expect_round_trip(const DynamicGraph& g, const std::string& tag) {
  TempFile file("snap_" + tag + ".snap");
  std::string error;
  ASSERT_TRUE(g.save(file.path, &error)) << error;
  for (const bool force_read : {false, true}) {
    Snapshot snap;
    ASSERT_TRUE(snap.open(file.path, &error, force_read)) << error;
    EXPECT_EQ(snap.node_count(), g.node_count());
    EXPECT_EQ(snap.edge_count(), g.edge_count());
    EXPECT_TRUE(snap.verify(&error)) << error;
    const DynamicGraph loaded = DynamicGraph::load(snap);
    EXPECT_TRUE(loaded == g) << tag << (force_read ? " (read fallback)" : " (mmap)");
    // operator== compares liveness + edge sets; additionally pin the
    // adjacency views (degree + neighbor multiset per node).
    g.for_each_node([&](NodeId v) {
      ASSERT_TRUE(loaded.has_node(v));
      auto a = std::vector<NodeId>(g.neighbors(v).begin(), g.neighbors(v).end());
      auto b = std::vector<NodeId>(loaded.neighbors(v).begin(), loaded.neighbors(v).end());
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << "node " << v;
    });
  }
}

TEST(Snapshot, RoundTripShapes) {
  expect_round_trip(DynamicGraph(), "empty");
  expect_round_trip(DynamicGraph(1), "single");
  expect_round_trip(graph::path(10), "path");
  expect_round_trip(graph::star(40), "star");  // center spills inline capacity
  expect_round_trip(graph::complete(20), "complete");
}

TEST(Snapshot, RoundTripChurnedRandomGraphs) {
  for (const std::uint64_t seed : {3u, 17u, 99u})
    expect_round_trip(churned_graph(600, seed, 2400),
                      "churn" + std::to_string(seed));
}

TEST(Snapshot, MisEqualityFromSnapshot) {
  const DynamicGraph g = churned_graph(500, 11, 2000);
  TempFile file("snap_mis.snap");
  ASSERT_TRUE(g.save(file.path));
  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path));

  const core::CascadeEngine direct(g, /*priority_seed=*/77);
  const core::CascadeEngine from_snap(DynamicGraph::load(snap), snap, /*priority_seed=*/77);
  EXPECT_EQ(direct.mis_size(), from_snap.mis_size());
  EXPECT_TRUE(direct.mis_set() == from_snap.mis_set());
  from_snap.verify();
}

TEST(Snapshot, EngineStateEquivalenceUnderContinuedChurn) {
  const DynamicGraph g = churned_graph(400, 23, 1600);
  TempFile file("snap_equiv.snap");
  ASSERT_TRUE(g.save(file.path));
  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path));

  core::CascadeEngine direct(g, 5);
  core::CascadeEngine from_snap(DynamicGraph::load(snap), snap, 5);

  // Drive both engines with the same valid churn continuation; every op
  // must produce identical adjustment counts and identical membership.
  workload::ChurnGenerator gen(g, workload::ChurnConfig{}, 31);
  for (int i = 0; i < 1500; ++i) {
    const workload::GraphOp op = gen.next();
    workload::apply(direct, op);
    workload::apply(from_snap, op);
    ASSERT_EQ(direct.last_report().adjustments, from_snap.last_report().adjustments)
        << "op " << i;
  }
  EXPECT_TRUE(direct.graph() == from_snap.graph());
  EXPECT_TRUE(direct.mis_set() == from_snap.mis_set());
  from_snap.verify();
}

TEST(Snapshot, DistributedEnginesFromSnapshot) {
  const DynamicGraph g = churned_graph(300, 41, 1200);
  TempFile file("snap_engines.snap");
  ASSERT_TRUE(g.save(file.path));
  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path));

  // The distributed engines start from graphs only; a loaded snapshot
  // graph stands in for the original exactly.
  const core::CascadeEngine oracle(g, 9);
  core::DistMis dist(DynamicGraph::load(snap), 9);
  dist.verify();
  EXPECT_TRUE(oracle.mis_set() == dist.mis_set());

  core::AsyncMis async(DynamicGraph::load(snap), 9, /*scheduler_seed=*/13);
  async.verify();
  EXPECT_TRUE(oracle.mis_set() == async.mis_set());
}

TEST(Snapshot, RejectsTruncatedFiles) {
  const DynamicGraph g = churned_graph(120, 7, 480);
  TempFile file("snap_trunc.snap");
  ASSERT_TRUE(g.save(file.path));
  const std::vector<std::uint8_t> bytes = read_bytes(file.path);
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{40}, sizeof(graph::SnapshotHeader),
        bytes.size() / 2, bytes.size() - 1}) {
    write_bytes(file.path, {bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    Snapshot snap;
    std::string error;
    EXPECT_FALSE(snap.open(file.path, &error)) << "kept " << keep << " bytes";
    EXPECT_FALSE(error.empty());
  }
  // Trailing garbage is rejected too (file_size mismatch).
  std::vector<std::uint8_t> extended = bytes;
  extended.push_back(0);
  write_bytes(file.path, extended);
  Snapshot snap;
  EXPECT_FALSE(snap.open(file.path));
}

TEST(Snapshot, RejectsCorruptHeaders) {
  const DynamicGraph g = churned_graph(120, 8, 480);
  TempFile file("snap_hdr.snap");
  ASSERT_TRUE(g.save(file.path));
  const std::vector<std::uint8_t> pristine = read_bytes(file.path);

  const auto corrupt = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bytes = pristine;
    bytes[offset] = value;
    write_bytes(file.path, bytes);
    Snapshot snap;
    std::string error;
    EXPECT_FALSE(snap.open(file.path, &error)) << "offset " << offset;
  };
  corrupt(0, 'X');    // magic
  corrupt(8, 99);     // version
  corrupt(13, 0x99);  // endian tag (byte 12 is 0x04 in a valid LE header)
  corrupt(16, 0xFF);  // file_size
  // Section offset pointing past the end (alive_off low byte; the section
  // length check catches it whether the result is huge or misaligned).
  corrupt(40, 0xFF);
}

TEST(Snapshot, RejectsCorruptStructure) {
  const DynamicGraph g = churned_graph(120, 9, 480);
  TempFile file("snap_struct.snap");
  ASSERT_TRUE(g.save(file.path));
  const std::vector<std::uint8_t> pristine = read_bytes(file.path);
  graph::SnapshotHeader header{};
  std::memcpy(&header, pristine.data(), sizeof(header));

  // Non-monotone CSR offsets: bump a middle offset far above its successor.
  {
    std::vector<std::uint8_t> bytes = pristine;
    const std::size_t mid =
        static_cast<std::size_t>(header.offsets_off) + 8 * (header.id_bound / 2);
    bytes[mid + 3] = 0xFF;
    write_bytes(file.path, bytes);
    Snapshot snap;
    EXPECT_FALSE(snap.open(file.path));
  }
  // Alive byte that is neither 0 nor 1.
  {
    std::vector<std::uint8_t> bytes = pristine;
    bytes[static_cast<std::size_t>(header.alive_off)] = 7;
    write_bytes(file.path, bytes);
    Snapshot snap;
    EXPECT_FALSE(snap.open(file.path));
  }
  // Edge-table control byte flipped to a different classification (full →
  // empty): the slot counts disagree with the header, so open() itself
  // rejects — DynamicGraph::load can never abort on an accepted snapshot.
  {
    std::vector<std::uint8_t> bytes = pristine;
    std::size_t full_slot = static_cast<std::size_t>(header.edge_ctrl_off);
    while ((bytes[full_slot] & 0x80U) != 0) ++full_slot;  // find a full slot
    bytes[full_slot] = 0x80;                              // kEmpty
    write_bytes(file.path, bytes);
    Snapshot snap;
    EXPECT_FALSE(snap.open(file.path));
  }
  // Same-classification corruption (full byte, wrong h2 tag): structurally
  // undetectable, so open() succeeds — but verify()'s checksum catches it.
  {
    std::vector<std::uint8_t> bytes = pristine;
    std::size_t full_slot = static_cast<std::size_t>(header.edge_ctrl_off);
    while ((bytes[full_slot] & 0x80U) != 0) ++full_slot;
    bytes[full_slot] ^= 0x01;  // stays in the full range [0, 0x80)
    write_bytes(file.path, bytes);
    Snapshot snap;
    ASSERT_TRUE(snap.open(file.path));
    std::string error;
    EXPECT_FALSE(snap.verify(&error));
  }
}

// ---------------------------------------------------------------------------
// Version-2 (engine-state) snapshots: warm start vs cold recompute.
// ---------------------------------------------------------------------------

/// An engine whose state has real history: built from a churned graph, then
/// driven through `extra_ops` more churn ops so keys were drawn for ids that
/// later died, membership flipped repeatedly, etc. Returns the generator so
/// callers can continue the same valid op stream.
core::CascadeEngine churned_engine(NodeId n, std::uint64_t seed,
                                   std::uint64_t priority_seed, int extra_ops,
                                   std::unique_ptr<workload::ChurnGenerator>& gen_out) {
  const DynamicGraph g = churned_graph(n, seed, 4 * n);
  core::CascadeEngine engine(g, priority_seed);
  workload::ChurnConfig config;
  config.p_abrupt = 0.5;
  config.p_unmute = 0.2;
  gen_out = std::make_unique<workload::ChurnGenerator>(g, config, seed + 3);
  for (int i = 0; i < extra_ops; ++i) workload::apply(engine, gen_out->next());
  return engine;
}

TEST(SnapshotV2, WarmStartEqualsColdRecomputeUnderContinuedChurn) {
  std::unique_ptr<workload::ChurnGenerator> gen;
  core::CascadeEngine source = churned_engine(350, 51, /*priority_seed=*/7,
                                              /*extra_ops=*/900, gen);
  TempFile file("v2_equiv.snap");
  std::string error;
  ASSERT_TRUE(core::save_snapshot(source, file.path, &error)) << error;

  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path, &error)) << error;
  ASSERT_TRUE(snap.has_engine_state());
  ASSERT_TRUE(snap.verify(&error)) << error;  // fixpoint deep-check
  EXPECT_EQ(snap.mis_size(), source.mis_size());
  EXPECT_EQ(snap.priority_seed(), 7u);

  // The warm engine trusts the persisted state. verify() shows the MIS
  // invariant holds under the adopted keys, so by fixpoint uniqueness its
  // membership is exactly what a greedy recompute over those keys yields;
  // state_diff pins it to the saved engine (keys, membership, RNG). Both
  // must hold now and under further mixed churn — including fresh priority
  // draws, which both take from the same seed and an unconsumed RNG.
  core::CascadeEngine warm(DynamicGraph::load(snap), snap, 7, graph::SnapshotLoad::kWarm);
  EXPECT_EQ(core::state_diff(warm, source), "");
  warm.verify();
  // "Zero greedy-recompute work" made falsifiable: any priority draw during
  // construction would have advanced the restored generator past the
  // persisted state (and the engine must agree with the original's RNG,
  // which the identity check above holds it to, and which is how the
  // continued-churn draws below line up).
  const util::Rng::State warm_rng = warm.priorities().rng_state();
  EXPECT_TRUE(std::equal(warm_rng.begin(), warm_rng.end(), snap.engine_ext().rng_state));
  // The adopted seed keeps re-saved metadata honest: a warm engine saved
  // again persists the seed that actually produced its key/RNG stream.
  EXPECT_EQ(warm.priorities().seed(), snap.priority_seed());

  for (int i = 0; i < 800; ++i) {
    const workload::GraphOp op = gen->next();
    workload::apply(source, op);
    workload::apply(warm, op);
    ASSERT_EQ(warm.last_report().adjustments, source.last_report().adjustments)
        << "warm engine diverged from the saved engine at op " << i;
  }
  EXPECT_EQ(core::state_diff(warm, source), "");
  warm.verify();
}

TEST(SnapshotV2, AutoWarmStartTracksTheSavedEngineSingleOpAndBatched) {
  std::unique_ptr<workload::ChurnGenerator> gen;
  core::CascadeEngine source = churned_engine(250, 61, /*priority_seed=*/11,
                                              /*extra_ops=*/600, gen);
  TempFile file("v2_all.snap");
  std::string error;
  ASSERT_TRUE(core::save_snapshot(source, file.path, &error)) << error;
  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path, &error)) << error;

  // kAuto on a v2 snapshot warm-starts; the second engine is fed
  // batch-of-one apply_batch, the path MisService runs.
  core::CascadeEngine warm_cascade(DynamicGraph::load(snap), snap, 11);
  core::CascadeEngine warm_batched(DynamicGraph::load(snap), snap, 11);
  EXPECT_EQ(core::state_diff(warm_cascade, source), "");
  EXPECT_EQ(core::state_diff(warm_batched, source), "");
  warm_cascade.verify();

  core::Batch batch;
  for (int i = 0; i < 250; ++i) {
    const workload::GraphOp op = gen->next();
    workload::apply(source, op);
    workload::apply(warm_cascade, op);
    batch.clear();
    workload::append_op(batch, op);
    const core::BatchResult br = core::apply_batch(warm_batched, batch);
    const std::uint64_t want = source.last_report().adjustments;
    ASSERT_EQ(warm_cascade.last_report().adjustments, want) << "op " << i;
    ASSERT_EQ(br.report.adjustments, want) << "op " << i;
  }
  EXPECT_EQ(core::state_diff(warm_cascade, source), "");
  EXPECT_EQ(core::state_diff(warm_batched, source), "");
  warm_cascade.verify();
  warm_batched.verify();
}

TEST(SnapshotV2, V1FilesStillColdStartUnderAuto) {
  const DynamicGraph g = churned_graph(180, 81, 720);
  TempFile file("v2_v1auto.snap");
  ASSERT_TRUE(g.save(file.path));
  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path));
  EXPECT_FALSE(snap.has_engine_state());
  // kAuto on a v1 file is exactly the historical cold path.
  const core::CascadeEngine from_snap(DynamicGraph::load(snap), snap, 23);
  const core::CascadeEngine direct(g, 23);
  EXPECT_TRUE(from_snap.mis_set() == direct.mis_set());
  // An explicit warm request on a graph-only file is a caller bug and must
  // fail loudly, not silently cold-start.
  EXPECT_DEATH(core::CascadeEngine(DynamicGraph::load(snap), snap, 23,
                                   graph::SnapshotLoad::kWarm),
               "graph-only");
}

TEST(Snapshot, ChecksumCatchesPayloadBitFlips) {
  const DynamicGraph g = churned_graph(200, 10, 800);
  TempFile file("snap_sum.snap");
  ASSERT_TRUE(g.save(file.path));
  std::vector<std::uint8_t> bytes = read_bytes(file.path);
  graph::SnapshotHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));

  // Swap two neighbor entries of one node: every structural check still
  // passes (same degree, same neighbor set) but the bytes moved — only the
  // checksum can notice.
  NodeId victim = graph::kInvalidNode;
  g.for_each_node([&](NodeId v) {
    if (victim == graph::kInvalidNode && g.degree(v) >= 2) victim = v;
  });
  ASSERT_NE(victim, graph::kInvalidNode);
  Snapshot pristine;
  ASSERT_TRUE(pristine.open(file.path));
  const std::size_t base = static_cast<std::size_t>(
      header.neighbors_off + sizeof(NodeId) * pristine.csr_offsets()[victim]);
  for (int b = 0; b < 4; ++b)
    std::swap(bytes[base + b], bytes[base + 4 + b]);
  pristine = Snapshot();  // release the mapping before rewriting the file

  write_bytes(file.path, bytes);
  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path));  // structure is still coherent
  std::string error;
  EXPECT_FALSE(snap.verify(&error));
  EXPECT_NE(error.find("checksum"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Frozen bytes: FNV-1a 64 over whole files for fixed seeds. The v1 pin was
// recorded from the stdio writer that util::save_staged replaced, the v4
// pins from the first v4 writer. The layouts are frozen (docs/FORMATS.md),
// so every writer must reproduce them byte for byte; the snapshot_bytes
// bench gates pin only sizes.
// ---------------------------------------------------------------------------

std::uint64_t file_fnv1a(const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_bytes(path);
  return util::fnv1a64(bytes.data(), bytes.size());
}

TEST(SnapshotBytes, V1GraphMatchesFrozenHash) {
  TempFile file("pin_v1.snap");
  ASSERT_TRUE(churned_graph(400, 2016, 1600).save(file.path));
  EXPECT_EQ(file_fnv1a(file.path), 0x52a3e58d4ce2a722ULL);
}

TEST(SnapshotBytes, V4EngineMatchesFrozenHash) {
  std::unique_ptr<workload::ChurnGenerator> gen;
  const core::CascadeEngine engine = churned_engine(400, 2017, /*priority_seed=*/7,
                                                    /*extra_ops=*/900, gen);
  TempFile file("pin_v4.snap");
  ASSERT_TRUE(core::save_snapshot(engine, file.path));
  EXPECT_EQ(file_fnv1a(file.path), 0x725a4ae29cac25ebULL);
}

TEST(SnapshotBytes, V4BorrowedAfterChurnMatchesFrozenHash) {
  // Saving a borrowed graph streams clean records from the mapping and
  // dirty ones from the overlay: the same sections from a different source.
  // Its materialized twin, driven by the same ops, writes the same bytes —
  // v4 stores no hash-table image whose tombstones could tell them apart.
  std::unique_ptr<workload::ChurnGenerator> gen;
  const core::CascadeEngine source = churned_engine(400, 2018, /*priority_seed=*/7,
                                                    /*extra_ops=*/300, gen);
  TempFile base("pin_base.snap");
  ASSERT_TRUE(core::save_snapshot(source, base.path));
  auto snap = std::make_shared<Snapshot>();
  std::string error;
  ASSERT_TRUE(snap->open(base.path, &error)) << error;
  core::CascadeEngine live(DynamicGraph::borrow(snap), *snap, 7);
  core::CascadeEngine twin(DynamicGraph::load(*snap), *snap, 7);
  ASSERT_TRUE(live.graph().borrowed());
  for (int i = 0; i < 600; ++i) {
    const workload::GraphOp op = gen->next();
    workload::apply(live, op);
    workload::apply(twin, op);
  }
  TempFile file("pin_borrowed.snap");
  TempFile twin_file("pin_twin.snap");
  ASSERT_TRUE(core::save_snapshot(live, file.path, &error)) << error;
  ASSERT_TRUE(core::save_snapshot(twin, twin_file.path, &error)) << error;
  EXPECT_EQ(file_fnv1a(file.path), 0x6f349ca609b8a499ULL);
  EXPECT_EQ(read_bytes(file.path), read_bytes(twin_file.path));
}

// The committed v2 fixture: the V2 frozen-hash engine (churned_engine(400,
// 2017, 7, 900)) as the retired v2 writer saved it, FNV-1a
// 0x35b0d44b5abed1d3. It pins the v2 reader now that nothing writes v2.
std::string v2_fixture_path() {
  return std::string(DMIS_TEST_DATA_DIR) + "/v2_engine.snap";
}

TEST(SnapshotV2Fixture, OpensVerifiesAndWarmStartsLoadedAndBorrowed) {
  ASSERT_EQ(file_fnv1a(v2_fixture_path()), 0x35b0d44b5abed1d3ULL);
  std::unique_ptr<workload::ChurnGenerator> gen;
  const core::CascadeEngine saved = churned_engine(400, 2017, /*priority_seed=*/7,
                                                   /*extra_ops=*/900, gen);
  auto snap = std::make_shared<Snapshot>();
  std::string error;
  ASSERT_TRUE(snap->open(v2_fixture_path(), &error)) << error;
  EXPECT_EQ(snap->header().version, graph::kSnapshotVersionEngine);
  EXPECT_TRUE(snap->has_edge_table());
  ASSERT_TRUE(snap->verify(&error)) << error;
  const core::CascadeEngine loaded(DynamicGraph::load(*snap), *snap, 7,
                                   graph::SnapshotLoad::kWarm);
  const core::CascadeEngine borrowed(DynamicGraph::borrow(snap), *snap, 7,
                                     graph::SnapshotLoad::kWarm);
  EXPECT_EQ(core::state_diff(loaded, saved), "");
  EXPECT_EQ(core::state_diff(borrowed, saved), "");
  loaded.verify();
  borrowed.verify();
}

// ---------------------------------------------------------------------------
// The writer under faults, through util::faulty_factory on the staging
// file: a save that fails anywhere returns false with an error naming the
// staging file, leaves the published file byte-identical and leaves no
// staging file behind.
// ---------------------------------------------------------------------------

TEST(SnapshotWriterFaults, FailedSavesKeepThePublishedFileAndLeaveNoStaging) {
  std::unique_ptr<workload::ChurnGenerator> gen;
  core::CascadeEngine engine = churned_engine(40, 2020, /*priority_seed=*/7,
                                              /*extra_ops=*/60, gen);
  TempFile file("faults.snap");
  const std::string staging = file.path + ".tmp";
  std::string error;
  ASSERT_TRUE(core::save_snapshot(engine, file.path, &error)) << error;
  const std::vector<std::uint8_t> published = read_bytes(file.path);
  // The saves below would publish different bytes.
  for (int i = 0; i < 40; ++i) workload::apply(engine, gen->next());
  TempFile probe("faults_probe.snap");
  ASSERT_TRUE(core::save_snapshot(engine, probe.path, &error)) << error;
  const std::uint64_t next_size = std::filesystem::file_size(probe.path);
  ASSERT_NE(read_bytes(probe.path), published);

  const auto expect_failed_save = [&](const util::FaultPlan& plan,
                                      const std::string& what) {
    std::string fault;
    EXPECT_FALSE(core::save_snapshot(engine, file.path, util::faulty_factory(plan), &fault))
        << what;
    EXPECT_NE(fault.find(staging), std::string::npos) << what << ": " << fault;
    EXPECT_EQ(read_bytes(file.path), published) << what;
    EXPECT_FALSE(std::filesystem::exists(staging)) << what;
  };
  for (std::uint64_t budget = 0; budget < next_size; budget += 8) {
    util::FaultPlan plan;
    plan.write_budget = budget;
    expect_failed_save(plan, "write fails after " + std::to_string(budget) + " bytes");
    if (HasFailure()) return;
  }
  util::FaultPlan no_sync;
  no_sync.sync_budget = 0;
  expect_failed_save(no_sync, "fsync fails");

  // The rename fails: a directory squats on the final path.
  TempFile squat("faults_squat.snap");
  std::filesystem::create_directory(squat.path);
  EXPECT_FALSE(core::save_snapshot(engine, squat.path, &error));
  EXPECT_NE(error.find(squat.path + ".tmp"), std::string::npos) << error;
  EXPECT_TRUE(std::filesystem::is_directory(squat.path));
  EXPECT_FALSE(std::filesystem::exists(squat.path + ".tmp"));

  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path, &error)) << error;
  EXPECT_TRUE(snap.verify(&error)) << error;
}

}  // namespace
