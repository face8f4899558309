// Snapshot corruption fuzz: byte/bit flips, truncations and section swaps
// over version-1 (graph-only), version-2 (engine-state), version-3
// (shard-partitioned) and version-4 (engine-state, no edge table) snapshot
// files. No writer emits v2 or v3 any more, so their corpora are the
// committed fixtures tests/data/v2_engine.snap and v3_shards4.snap; readers
// must keep accepting and validating them.
//
// The contract under test is the format's safety ladder (docs/FORMATS.md):
// whatever the bytes, Snapshot::open either rejects the file or yields a
// view whose accessors are memory-safe — so DynamicGraph::load and a warm
// engine construction must succeed without crashing on ANY open-accepted
// file — and Snapshot::verify additionally vouches for semantic integrity
// (checksum + undirectedness + greedy-fixpoint engine state), so an engine
// built from a verify-accepted file must satisfy the full MIS invariant.
// Checksum-resealed structural mutants of a v4 file (a redirected, a
// duplicate, a self-loop and a dead-node adjacency entry; membership off
// the fixpoint) pin that verify() needs no stored table to reject them.
// "Never crash" is enforced for real by the ASan+UBSan CI job, which re-runs
// this suite with bounds checking on every mapped access.
//
// Mutations are seeded (util::Rng) so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/cascade_engine.hpp"
#include "core/engine_snapshot.hpp"
#include "graph/snapshot.hpp"
#include "support.hpp"
#include "util/rng.hpp"

namespace {

using namespace dmis;
using graph::DynamicGraph;
using graph::NodeId;
using graph::Snapshot;

/// The committed v3 fixture: a churned CascadeEngine snapshot (seed 4242)
/// written by the retired v3 writer with shard_count 4 — 84 live nodes over
/// 122 ids, one spilled 18-neighbor record, edge-table tombstones.
std::string v3_fixture_path() {
  return std::string(DMIS_TEST_DATA_DIR) + "/v3_shards4.snap";
}

/// The committed v2 fixture (churned_engine(400, 2017, 7, 900) in
/// test_snapshot.cpp, written by the retired v2 writer).
std::string v2_fixture_path() {
  return std::string(DMIS_TEST_DATA_DIR) + "/v2_engine.snap";
}

using test::churned_graph;
using test::read_bytes;
using test::reseal_snapshot;
using test::TempFile;
using test::write_bytes;

/// The post-mutation gauntlet: open the file; if open accepts, every
/// accessor-driven consumer must run to completion (memory safety), and if
/// verify also accepts, the adopted state must satisfy the engine's full
/// invariant (semantic safety). Aborts (DMIS_ASSERT) or sanitizer faults
/// anywhere in here are the failures this suite exists to catch.
///
/// The borrowed path rides the same gauntlet: whatever open() accepts, a
/// zero-copy borrow over it must walk clean and agree with the materialized
/// load — and whatever open() rejects, both paths reject identically
/// (there is one open(); borrow never re-parses the file).
void exercise(const std::string& path, std::uint64_t engine_seed) {
  auto shared = std::make_shared<Snapshot>();
  Snapshot& snap = *shared;
  std::string error;
  if (!snap.open(path, &error)) {
    EXPECT_FALSE(error.empty());
    return;  // rejected — the common, correct outcome, for both modes
  }
  // Open accepted: structural safety is promised. Walk everything.
  const DynamicGraph g = DynamicGraph::load(snap);
  EXPECT_EQ(g.node_count(), snap.node_count());
  std::uint64_t degree_sum = 0;
  for (NodeId v = 0; v < snap.id_bound(); ++v)
    if (snap.alive(v))
      for (const NodeId u : snap.neighbors(v)) degree_sum += u < snap.id_bound();
  EXPECT_EQ(degree_sum, 2 * snap.edge_count());
  const bool verified = snap.verify(&error);
  // Borrowed twin: every query view over the mapped bytes must be safe.
  // Both modes read one CSR, so the node views agree on any open-accepted
  // file. The edge views need not: a borrowed graph answers edge queries
  // from the CSR, a loaded one from the stored table (v1–v3) or from the
  // CSR's lower-endpoint entries (v4), and on a mutant those can disagree
  // (a CSR that is not symmetric, a table key that is not in it). They
  // describe one edge set exactly when verify() vouches for the file, so
  // only verified files are held to edge equality.
  {
    DynamicGraph borrowed = DynamicGraph::borrow(shared);
    EXPECT_EQ(borrowed.node_count(), g.node_count());
    for (NodeId v = 0; v < snap.id_bound(); ++v) {
      ASSERT_EQ(borrowed.has_node(v), g.has_node(v));
      if (!borrowed.has_node(v)) continue;
      const auto bn = borrowed.neighbors(v);
      const auto mn = g.neighbors(v);
      ASSERT_EQ(bn.size(), mn.size()) << "node " << v;
      for (std::size_t i = 0; i < bn.size(); ++i)
        EXPECT_EQ(bn[i], mn[i]) << "node " << v << " slot " << i;
    }
    auto be = borrowed.edges();
    auto me = g.edges();
    std::sort(be.begin(), be.end());
    std::sort(me.begin(), me.end());
    for (const auto* list : {&be, &me})
      for (const auto& [eu, ev] : *list) {
        const bool agree = borrowed.has_edge(eu, ev) == g.has_edge(eu, ev);
        EXPECT_TRUE(agree || !verified) << "(" << eu << "," << ev << ")";
      }
    if (verified) {
      EXPECT_EQ(borrowed.edge_count(), g.edge_count());
      EXPECT_EQ(be, me);
    }
    // A churn touch (COW a record, route the key through the deltas) must
    // net to zero. The edge is sampled from the loaded twin (only a
    // materialized graph has a table to sample); its endpoints must be live
    // under the borrowed view, and it must sit in both adjacency records
    // too, since removing an edge a record lacks is a caller bug.
    NodeId u = 0, w = 0;
    util::Rng sample_rng(engine_seed);
    const auto lists = [&](NodeId a, NodeId b) {
      const auto nbrs = borrowed.neighbors(a);
      return std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end();
    };
    if (g.sample_edge(sample_rng, u, w) && u != w && borrowed.has_node(u) &&
        borrowed.has_node(w) && borrowed.has_edge(u, w) && lists(u, w) && lists(w, u)) {
      EXPECT_TRUE(borrowed.remove_edge(u, w));
      EXPECT_FALSE(borrowed.has_edge(u, w));
      EXPECT_TRUE(borrowed.add_edge(u, w));
      EXPECT_TRUE(borrowed.has_edge(u, w));
    }
  }
  if (snap.has_engine_state()) {
    // Warm construction must be safe on any open-accepted file (open
    // validated the membership bytes and mis_size agreement); the MIS
    // invariant is only promised when verify() vouched for the fixpoint.
    const core::CascadeEngine warm(DynamicGraph::load(snap), snap, engine_seed,
                                   graph::SnapshotLoad::kWarm);
    EXPECT_EQ(warm.mis_size(), static_cast<std::size_t>(snap.mis_size()));
    if (verified) warm.verify();
  } else if (verified) {
    const core::CascadeEngine cold(DynamicGraph::load(snap), engine_seed);
    cold.verify();
  }
}

struct Corpus {
  explicit Corpus(const std::string& tag) : file(tag) {}
  TempFile file;
  std::vector<std::uint8_t> pristine;
};

/// Build the four seed files: a v1 graph snapshot and a v4 engine snapshot
/// of a churned graph (dead ids, spilled records, tombstones), plus scratch
/// copies of the v2 and v3 fixtures (mutations never touch the committed
/// files).
void build_corpus(Corpus& v1, Corpus& v2, Corpus& v3, Corpus& v4, NodeId n,
                  std::uint64_t seed) {
  const DynamicGraph g = churned_graph(n, seed, 3 * n);
  ASSERT_TRUE(g.save(v1.file.path));
  const core::CascadeEngine engine(g, seed * 3 + 1);
  ASSERT_TRUE(core::save_snapshot(engine, v4.file.path));
  v1.pristine = read_bytes(v1.file.path);
  v4.pristine = read_bytes(v4.file.path);
  for (auto [corpus, fixture] : {std::pair{&v2, v2_fixture_path()},
                                 std::pair{&v3, v3_fixture_path()}}) {
    corpus->pristine = read_bytes(fixture);
    ASSERT_FALSE(corpus->pristine.empty()) << "missing fixture " << fixture;
    write_bytes(corpus->file.path, corpus->pristine);
  }
}

void fuzz_bit_flips(Corpus& c, std::uint64_t seed, int iterations) {
  util::Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    std::vector<std::uint8_t> bytes = c.pristine;
    // 1–4 independent single-bit flips: single flips probe every rejection
    // path; multi-flips can conspire past the cheap structural counters and
    // must then be caught by the checksum (or load consistently).
    const int flips = 1 + static_cast<int>(rng.next_u64() % 4);
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = static_cast<std::size_t>(rng.next_u64() % bytes.size());
      bytes[at] ^= static_cast<std::uint8_t>(1U << (rng.next_u64() % 8));
    }
    write_bytes(c.file.path, bytes);
    exercise(c.file.path, seed + static_cast<std::uint64_t>(i));
  }
  write_bytes(c.file.path, c.pristine);
}

void fuzz_truncations(Corpus& c, std::uint64_t seed, int iterations) {
  util::Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    const std::size_t keep = static_cast<std::size_t>(rng.next_u64() % c.pristine.size());
    write_bytes(c.file.path, {c.pristine.begin(),
                              c.pristine.begin() + static_cast<long>(keep)});
    Snapshot snap;
    std::string error;
    // Every strict prefix must be rejected (the header pins file_size).
    EXPECT_FALSE(snap.open(c.file.path, &error)) << "kept " << keep << " bytes";
  }
  write_bytes(c.file.path, c.pristine);
}

void fuzz_section_swaps(Corpus& c, std::uint64_t seed) {
  // Swap every pair of section-offset fields in the base header (and, for
  // engine files, the extension header): the file then claims sections live
  // where other sections' bytes are. open() must reject or the downstream
  // consumers must digest the misdirected bytes without crashing.
  graph::SnapshotHeader header{};
  std::memcpy(&header, c.pristine.data(), sizeof(header));
  std::vector<std::size_t> offset_fields = {
      offsetof(graph::SnapshotHeader, alive_off),
      offsetof(graph::SnapshotHeader, offsets_off),
      offsetof(graph::SnapshotHeader, neighbors_off),
      offsetof(graph::SnapshotHeader, edge_ctrl_off),
      offsetof(graph::SnapshotHeader, edge_keys_off),
  };
  if (header.version >= graph::kSnapshotVersionEngine) {
    offset_fields.push_back(sizeof(graph::SnapshotHeader) +
                            offsetof(graph::SnapshotEngineExt, keys_off));
    offset_fields.push_back(sizeof(graph::SnapshotHeader) +
                            offsetof(graph::SnapshotEngineExt, membership_off));
  }
  std::uint64_t case_id = 0;
  for (std::size_t a = 0; a < offset_fields.size(); ++a) {
    for (std::size_t b = a + 1; b < offset_fields.size(); ++b) {
      std::vector<std::uint8_t> bytes = c.pristine;
      for (int byte = 0; byte < 8; ++byte)
        std::swap(bytes[offset_fields[a] + byte], bytes[offset_fields[b] + byte]);
      write_bytes(c.file.path, bytes);
      exercise(c.file.path, seed + case_id++);
    }
  }
  // Physical swap variant: exchange two equal-length 8-aligned chunks of
  // payload so every header field still validates but section *contents*
  // moved. Structure may pass; the checksum must not.
  util::Rng rng(seed);
  for (int i = 0; i < 32; ++i) {
    std::vector<std::uint8_t> bytes = c.pristine;
    const std::size_t payload = bytes.size() - sizeof(graph::SnapshotHeader);
    if (payload < 64) break;
    const std::size_t len = 8 + static_cast<std::size_t>(rng.next_u64() % 4) * 8;
    const auto pick = [&] {
      return sizeof(graph::SnapshotHeader) +
             (static_cast<std::size_t>(rng.next_u64() % (payload - len)) & ~std::size_t{7});
    };
    const std::size_t x = pick();
    const std::size_t y = pick();
    if (x == y) continue;
    for (std::size_t byte = 0; byte < len; ++byte) std::swap(bytes[x + byte], bytes[y + byte]);
    write_bytes(c.file.path, bytes);
    exercise(c.file.path, seed + 1000 + static_cast<std::uint64_t>(i));
  }
  write_bytes(c.file.path, c.pristine);
}

class SnapshotFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    v1_ = std::make_unique<Corpus>("v1.snap");
    v2_ = std::make_unique<Corpus>("v2.snap");
    v3_ = std::make_unique<Corpus>("v3.snap");
    v4_ = std::make_unique<Corpus>("v4.snap");
    build_corpus(*v1_, *v2_, *v3_, *v4_, /*n=*/250, /*seed=*/29);
    // Sanity: the pristine corpus opens, verifies and warm-starts.
    for (const Corpus* c : {v1_.get(), v2_.get(), v3_.get(), v4_.get()}) {
      Snapshot snap;
      std::string error;
      ASSERT_TRUE(snap.open(c->file.path, &error)) << error;
      ASSERT_TRUE(snap.verify(&error)) << error;
      exercise(c->file.path, 1);
    }
  }
  std::unique_ptr<Corpus> v1_;
  std::unique_ptr<Corpus> v2_;
  std::unique_ptr<Corpus> v3_;
  std::unique_ptr<Corpus> v4_;
};

TEST_F(SnapshotFuzz, BitFlipsNeverCrashV1) { fuzz_bit_flips(*v1_, 0xF00D, 200); }
TEST_F(SnapshotFuzz, BitFlipsNeverCrashV2) { fuzz_bit_flips(*v2_, 0xBEEF, 200); }
TEST_F(SnapshotFuzz, BitFlipsNeverCrashV3) { fuzz_bit_flips(*v3_, 0xC0DE, 200); }
TEST_F(SnapshotFuzz, BitFlipsNeverCrashV4) { fuzz_bit_flips(*v4_, 0xD00D, 200); }

TEST_F(SnapshotFuzz, TruncationsAlwaysRejectedV1) { fuzz_truncations(*v1_, 0xACE1, 60); }
TEST_F(SnapshotFuzz, TruncationsAlwaysRejectedV2) { fuzz_truncations(*v2_, 0xACE2, 60); }
TEST_F(SnapshotFuzz, TruncationsAlwaysRejectedV3) { fuzz_truncations(*v3_, 0xACE3, 60); }
TEST_F(SnapshotFuzz, TruncationsAlwaysRejectedV4) { fuzz_truncations(*v4_, 0xACE4, 60); }

TEST_F(SnapshotFuzz, SectionSwapsNeverCrashV1) { fuzz_section_swaps(*v1_, 0x51AB); }
TEST_F(SnapshotFuzz, SectionSwapsNeverCrashV2) { fuzz_section_swaps(*v2_, 0x51AC); }
TEST_F(SnapshotFuzz, SectionSwapsNeverCrashV3) { fuzz_section_swaps(*v3_, 0x51AD); }
TEST_F(SnapshotFuzz, SectionSwapsNeverCrashV4) { fuzz_section_swaps(*v4_, 0x51AE); }

TEST_F(SnapshotFuzz, VersionRelabelingRejected) {
  // The version field lives OUTSIDE the checksummed payload, so relabeling
  // a v2 file as v1 (or vice versa) leaves the checksum valid; open() must
  // still reject because the first section no longer starts at the claimed
  // version's header end. Without that pin, a downgraded v2 file would pass
  // deep verify and silently lose its engine state.
  std::vector<std::uint8_t> bytes = v2_->pristine;
  ASSERT_EQ(bytes[8], 2);  // u32 version LE, low byte
  bytes[8] = 1;
  write_bytes(v2_->file.path, bytes);
  Snapshot snap;
  std::string error;
  EXPECT_FALSE(snap.open(v2_->file.path, &error));
  EXPECT_NE(error.find("header end"), std::string::npos) << error;

  bytes = v1_->pristine;
  ASSERT_EQ(bytes[8], 1);
  bytes[8] = 2;
  write_bytes(v1_->file.path, bytes);
  EXPECT_FALSE(snap.open(v1_->file.path, &error));

  write_bytes(v1_->file.path, v1_->pristine);
  write_bytes(v2_->file.path, v2_->pristine);
}

TEST_F(SnapshotFuzz, V4VersionRelabelingRejected) {
  // v2 and v4 share the header end (168), so the alive pin alone cannot
  // tell them apart; the edge-table fields do. A v4 file relabeled v2 names
  // a table at offset 0, inside the headers; a v2 file relabeled v4 names a
  // table where v4 requires zeros. Relabeling v4 as v1 (header end 104)
  // trips the alive pin; as v3, its alive bytes read as a shard table.
  const auto relabeled_rejected = [&](Corpus& c, std::uint8_t from, std::uint8_t to,
                                      const std::string& want) {
    std::vector<std::uint8_t> bytes = c.pristine;
    ASSERT_EQ(bytes[8], from);
    bytes[8] = to;
    write_bytes(c.file.path, bytes);
    Snapshot snap;
    std::string error;
    EXPECT_FALSE(snap.open(c.file.path, &error)) << "v" << int(from) << " as v" << int(to);
    EXPECT_FALSE(error.empty());
    EXPECT_NE(error.find(want), std::string::npos) << error;
    write_bytes(c.file.path, c.pristine);
  };
  relabeled_rejected(*v4_, 4, 2, "edge ctrl section out of bounds");
  relabeled_rejected(*v4_, 4, 1, "header end");
  relabeled_rejected(*v4_, 4, 3, "");
  relabeled_rejected(*v2_, 2, 4, "edge table fields not zero");
  relabeled_rejected(*v3_, 3, 4, "header end");
  relabeled_rejected(*v1_, 1, 4, "header end");
}

TEST_F(SnapshotFuzz, V3VersionNegotiation) {
  // Downgrade relabelings of a v3 file: the alive section starts at 296, so
  // claiming v2 (header end 168) or v1 (104) must trip the header-end pin —
  // the checksum stays valid by construction, exactly the attack the pin
  // exists for.
  std::vector<std::uint8_t> bytes = v3_->pristine;
  ASSERT_EQ(bytes[8], 3);
  Snapshot snap;
  std::string error;
  for (const std::uint8_t relabel : {std::uint8_t{2}, std::uint8_t{1}}) {
    bytes[8] = relabel;
    write_bytes(v3_->file.path, bytes);
    EXPECT_FALSE(snap.open(v3_->file.path, &error)) << "relabeled v" << int(relabel);
    EXPECT_NE(error.find("header end"), std::string::npos) << error;
  }
  // Upgrade relabelings: a v2 file claiming v3 must be rejected (its bytes
  // at [168, 296) are alive bytes, not a shard table, and its alive section
  // does not start at 296); a claimed version 5 is from a future writer and
  // an old validator — this one — must reject it cleanly by number.
  bytes = v2_->pristine;
  bytes[8] = 3;
  write_bytes(v2_->file.path, bytes);
  EXPECT_FALSE(snap.open(v2_->file.path, &error));
  EXPECT_FALSE(error.empty());
  bytes = v3_->pristine;
  bytes[8] = 5;
  write_bytes(v3_->file.path, bytes);
  EXPECT_FALSE(snap.open(v3_->file.path, &error));
  EXPECT_NE(error.find("unsupported snapshot version"), std::string::npos) << error;

  // And the backward direction of the negotiation contract: genuine v1/v2
  // files keep opening (and v2 keeps warm-loading) with the v3-aware
  // reader. shard_count() reports the implicit single shard.
  write_bytes(v1_->file.path, v1_->pristine);
  write_bytes(v2_->file.path, v2_->pristine);
  write_bytes(v3_->file.path, v3_->pristine);
  ASSERT_TRUE(snap.open(v2_->file.path, &error)) << error;
  EXPECT_EQ(snap.shard_count(), 1U);
  const core::CascadeEngine warm(DynamicGraph::load(snap), snap, snap.priority_seed(),
                                 graph::SnapshotLoad::kWarm);
  warm.verify();
  ASSERT_TRUE(snap.open(v3_->file.path, &error)) << error;
  EXPECT_EQ(snap.shard_count(), 4U);
}

TEST(SnapshotV3Fixture, OpensVerifiesAndRoundTripsThroughV4) {
  // The fixture pins the v3 reader: it must open, deep-verify and
  // warm-start, and re-saving that engine (as v4, the only engine format
  // still written) must reproduce the same graph, keys, membership and RNG
  // state — the shard table and the edge table are the only things a v3
  // file adds.
  Snapshot v3;
  std::string error;
  ASSERT_TRUE(v3.open(v3_fixture_path(), &error)) << error;
  ASSERT_TRUE(v3.verify(&error)) << error;
  EXPECT_EQ(v3.header().version, graph::kSnapshotVersionSharded);
  EXPECT_EQ(v3.shard_count(), 4U);
  // The shapes the fixture exists to cover: dead ids, edge-table
  // tombstones and a record spilled past the inline slots.
  EXPECT_LT(v3.node_count(), v3.id_bound());
  EXPECT_GT(v3.edge_occupied(), v3.edge_count());
  bool spilled = false;
  for (NodeId v = 0; v < v3.id_bound(); ++v)
    spilled |= v3.alive(v) && v3.degree(v) > DynamicGraph::kInlineNeighbors;
  EXPECT_TRUE(spilled);

  const core::CascadeEngine warm(DynamicGraph::load(v3), v3, v3.priority_seed(),
                                 graph::SnapshotLoad::kWarm);
  warm.verify();
  TempFile file("fixture_v4.snap");
  ASSERT_TRUE(core::save_snapshot(warm, file.path, &error)) << error;
  Snapshot v4;
  ASSERT_TRUE(v4.open(file.path, &error)) << error;
  ASSERT_TRUE(v4.verify(&error)) << error;
  EXPECT_EQ(v4.header().version, graph::kSnapshotVersionTableFree);
  EXPECT_FALSE(v4.has_edge_table());

  EXPECT_TRUE(DynamicGraph::load(v4) == DynamicGraph::load(v3));
  const auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  EXPECT_TRUE(same(v4.priority_keys(), v3.priority_keys()));
  EXPECT_TRUE(same(v4.membership_bytes(), v3.membership_bytes()));
  EXPECT_EQ(v4.mis_size(), v3.mis_size());
  EXPECT_EQ(v4.priority_seed(), v3.priority_seed());
  EXPECT_TRUE(std::equal(std::begin(v4.engine_ext().rng_state),
                         std::end(v4.engine_ext().rng_state),
                         std::begin(v3.engine_ext().rng_state)));
  // The sections both versions carry are byte-identical.
  EXPECT_TRUE(same(v4.alive_bytes(), v3.alive_bytes()));
  EXPECT_TRUE(same(v4.csr_offsets(), v3.csr_offsets()));
  EXPECT_TRUE(same(v4.csr_neighbors(), v3.csr_neighbors()));

  // The reopened v4 file restarts the same engine, future draws included.
  core::CascadeEngine again(DynamicGraph::load(v4), v4, v4.priority_seed(),
                            graph::SnapshotLoad::kWarm);
  core::CascadeEngine twin(DynamicGraph::load(v3), v3, v3.priority_seed(),
                           graph::SnapshotLoad::kWarm);
  EXPECT_EQ(core::state_diff(again, warm), "");
  const NodeId fresh = again.add_node();
  EXPECT_EQ(twin.add_node(), fresh);
  EXPECT_EQ(again.priorities().key(fresh), twin.priorities().key(fresh));
  EXPECT_EQ(again.membership(), twin.membership());
}

TEST_F(SnapshotFuzz, ShardTableBitFlipsRejected) {
  // Every bit of the 128-byte shard table sits inside the checksummed
  // payload. The safety ladder splits the rejection: open()'s structural
  // validation kills any flip that breaks the partition shape (count out of
  // range, non-monotone boundary, dormant slot non-zero), and the flips
  // that slide past it — a boundary nudged but still monotone — MUST fail
  // verify() via the checksum, while every open-accepted mutant still rides
  // the full consumer gauntlet memory-safely. Nothing reads the table any
  // more, but the rules v3 files were written under still hold.
  // 1024 single-bit mutants, exhaustively.
  const std::size_t shard_off =
      sizeof(graph::SnapshotHeader) + sizeof(graph::SnapshotEngineExt);
  std::size_t open_accepted = 0;
  for (std::size_t byte = 0; byte < sizeof(graph::SnapshotShardExt); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> bytes = v3_->pristine;
      bytes[shard_off + byte] ^= static_cast<std::uint8_t>(1U << bit);
      write_bytes(v3_->file.path, bytes);
      Snapshot snap;
      std::string error;
      if (snap.open(v3_->file.path, &error)) {
        ++open_accepted;
        EXPECT_FALSE(snap.verify(&error))
            << "verified a flipped shard-table bit (byte " << byte << " bit "
            << bit << ")";
        exercise(v3_->file.path,
                 static_cast<std::uint64_t>(byte * 8 + static_cast<std::size_t>(bit)));
      } else {
        EXPECT_FALSE(error.empty());
      }
    }
  }
  // Both rungs of the ladder must actually have fired: most flips are
  // structural rejections, but monotone boundary nudges do exist.
  EXPECT_GT(open_accepted, 0U);
  EXPECT_LT(open_accepted, 8U * sizeof(graph::SnapshotShardExt));
  write_bytes(v3_->file.path, v3_->pristine);
}

/// Every prefix length a crash mid-save could leave behind if the save were
/// NOT atomic: each section boundary, one byte either side of it, and the
/// header edges. All must be rejected by open() — and since save_snapshot
/// publishes via write-tmp/fsync/rename, none of these shapes can ever
/// appear at the published path in the first place; this pins the defense
/// in depth for files that arrive by other means (scp, backup restore).
void truncate_at_boundaries(Corpus& c) {
  graph::SnapshotHeader header{};
  std::memcpy(&header, c.pristine.data(), sizeof(header));
  std::vector<std::size_t> cuts = {
      0, 1, 7, 8, sizeof(graph::SnapshotHeader) - 1, sizeof(graph::SnapshotHeader),
      static_cast<std::size_t>(header.alive_off),
      static_cast<std::size_t>(header.offsets_off),
      static_cast<std::size_t>(header.neighbors_off),
      static_cast<std::size_t>(header.edge_ctrl_off),
      static_cast<std::size_t>(header.edge_keys_off),
      c.pristine.size() - 1,
  };
  if (header.version >= graph::kSnapshotVersionEngine) {
    graph::SnapshotEngineExt ext{};
    std::memcpy(&ext, c.pristine.data() + sizeof(header), sizeof(ext));
    cuts.push_back(sizeof(header) + sizeof(ext));
    cuts.push_back(static_cast<std::size_t>(ext.keys_off));
    cuts.push_back(static_cast<std::size_t>(ext.membership_off));
  }
  if (header.version == graph::kSnapshotVersionSharded) {
    // The v3 header end (shard table included) — the boundary every v3
    // section offset is pinned against.
    cuts.push_back(sizeof(graph::SnapshotHeader) + sizeof(graph::SnapshotEngineExt) +
                   sizeof(graph::SnapshotShardExt));
  }
  // ±1 around every boundary probes off-by-one acceptance.
  const std::vector<std::size_t> base = cuts;
  for (const std::size_t at : base) {
    if (at > 0) cuts.push_back(at - 1);
    cuts.push_back(at + 1);
  }
  for (const std::size_t keep : cuts) {
    if (keep >= c.pristine.size()) continue;
    write_bytes(c.file.path, {c.pristine.begin(),
                              c.pristine.begin() + static_cast<long>(keep)});
    Snapshot snap;
    std::string error;
    EXPECT_FALSE(snap.open(c.file.path, &error))
        << "accepted a " << keep << "-byte prefix of a " << c.pristine.size()
        << "-byte snapshot";
    EXPECT_FALSE(error.empty());
  }
  write_bytes(c.file.path, c.pristine);
}

TEST_F(SnapshotFuzz, SectionBoundaryTruncationsRejectedV1) {
  truncate_at_boundaries(*v1_);
}
TEST_F(SnapshotFuzz, SectionBoundaryTruncationsRejectedV2) {
  truncate_at_boundaries(*v2_);
}
TEST_F(SnapshotFuzz, SectionBoundaryTruncationsRejectedV3) {
  truncate_at_boundaries(*v3_);
}
TEST_F(SnapshotFuzz, SectionBoundaryTruncationsRejectedV4) {
  truncate_at_boundaries(*v4_);
}

TEST_F(SnapshotFuzz, FailedSaveLeavesExistingSnapshotIntact) {
  // Atomic publish contract: a save that fails mid-flight must leave a
  // pre-existing snapshot at the target path byte-identical — the window
  // where the old file is gone and the new one incomplete must not exist.
  // Force the failure by squatting a directory on the .tmp staging path.
  const DynamicGraph g = churned_graph(80, 41, 240);
  const core::CascadeEngine engine(g, 5);
  TempFile file("atomic.snap");
  std::string error;
  ASSERT_TRUE(core::save_snapshot(engine, file.path, &error)) << error;
  const std::vector<std::uint8_t> before = read_bytes(file.path);

  const std::string tmp = file.path + ".tmp";
  std::filesystem::create_directory(tmp);
  const DynamicGraph g2 = churned_graph(90, 43, 270);
  const core::CascadeEngine engine2(g2, 5);
  EXPECT_FALSE(core::save_snapshot(engine2, file.path, &error));
  EXPECT_NE(error.find(".tmp"), std::string::npos) << error;  // errno context names the staging file
  std::filesystem::remove_all(tmp);

  EXPECT_EQ(read_bytes(file.path), before);
  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path, &error)) << error;
  EXPECT_TRUE(snap.verify(&error)) << error;
}

TEST_F(SnapshotFuzz, SuccessfulSaveReplacesAndLeavesNoResidue) {
  const DynamicGraph g = churned_graph(80, 47, 240);
  const core::CascadeEngine engine(g, 5);
  TempFile file("replace.snap");
  std::string error;
  ASSERT_TRUE(core::save_snapshot(engine, file.path, &error)) << error;

  // A stale partial .tmp from a hypothetical earlier crash must not block
  // or corrupt the next save.
  write_bytes(file.path + ".tmp", {0xDE, 0xAD, 0xBE, 0xEF});
  const DynamicGraph g2 = churned_graph(100, 53, 300);
  const core::CascadeEngine engine2(g2, 9);
  ASSERT_TRUE(core::save_snapshot(engine2, file.path, &error)) << error;
  EXPECT_FALSE(std::filesystem::exists(file.path + ".tmp"));

  Snapshot snap;
  ASSERT_TRUE(snap.open(file.path, &error)) << error;
  EXPECT_TRUE(snap.verify(&error)) << error;
  EXPECT_EQ(snap.priority_seed(), 9U);  // the new file, not the old one
}

/// A live node with at least one neighbor, located by parsing the pristine
/// header sections directly (the corruption tests below need a victim whose
/// record they can poison byte-precisely).
NodeId find_live_node_with_degree(const std::vector<std::uint8_t>& pristine,
                                  const graph::SnapshotHeader& header) {
  const std::uint8_t* alive = pristine.data() + header.alive_off;
  const auto* offs =
      reinterpret_cast<const std::uint64_t*>(pristine.data() + header.offsets_off);
  // Prefer a mid-range id so the corruption sits far from the shallow
  // checks' end-pins.
  for (NodeId v = header.id_bound / 2; v < header.id_bound; ++v)
    if (alive[v] != 0 && offs[v + 1] > offs[v]) return v;
  for (NodeId v = 0; v < header.id_bound / 2; ++v)
    if (alive[v] != 0 && offs[v + 1] > offs[v]) return v;
  return graph::kInvalidNode;
}

using SnapshotFuzzDeathTest = SnapshotFuzz;

TEST_F(SnapshotFuzzDeathTest, ShallowCorruptCsrOffsetAbortsOnFirstTouch) {
  // kShallow pins only the CSR end-points, so a corrupted *interior* offset
  // slides past open() by design — that is the price of the O(header) open.
  // The borrowed graph's lazy per-node guard must then abort with a clear
  // message on the FIRST touch of the poisoned record, instead of handing
  // out an out-of-bounds neighbor span. (kFull keeps rejecting the file,
  // which is why only shallow opens arm the guard bitmap.)
  graph::SnapshotHeader header{};
  std::memcpy(&header, v1_->pristine.data(), sizeof(header));
  const NodeId victim = find_live_node_with_degree(v1_->pristine, header);
  ASSERT_NE(victim, graph::kInvalidNode);

  std::vector<std::uint8_t> bytes = v1_->pristine;
  const std::uint64_t evil = 2 * header.edge_count + (1ULL << 20);
  std::memcpy(bytes.data() + header.offsets_off + std::uint64_t{victim} * 8,
              &evil, sizeof(evil));
  write_bytes(v1_->file.path, bytes);

  auto snap = std::make_shared<Snapshot>();
  std::string error;
  EXPECT_FALSE(snap->open(v1_->file.path, &error));  // kFull still rejects
  ASSERT_TRUE(snap->open(v1_->file.path, &error, /*force_read=*/false,
                         graph::SnapshotValidation::kShallow))
      << error;  // shallow accepts: nothing O(1) can see is wrong
  const DynamicGraph borrowed = DynamicGraph::borrow(snap);
  EXPECT_DEATH((void)borrowed.neighbors(victim), "corrupt CSR offsets");
  write_bytes(v1_->file.path, v1_->pristine);
}

TEST_F(SnapshotFuzzDeathTest, ShallowCorruptNeighborIdAbortsOnFirstTouch) {
  // Same contract, other array: a neighbor id past id_bound would index the
  // alive/offset arrays out of bounds downstream. The first-touch guard
  // must catch it before any accessor dereferences through it.
  graph::SnapshotHeader header{};
  std::memcpy(&header, v1_->pristine.data(), sizeof(header));
  const NodeId victim = find_live_node_with_degree(v1_->pristine, header);
  ASSERT_NE(victim, graph::kInvalidNode);
  const auto* offs = reinterpret_cast<const std::uint64_t*>(
      v1_->pristine.data() + header.offsets_off);
  const std::uint64_t slot = offs[victim];

  std::vector<std::uint8_t> bytes = v1_->pristine;
  const NodeId evil = ~NodeId{0};
  std::memcpy(bytes.data() + header.neighbors_off + slot * sizeof(NodeId),
              &evil, sizeof(evil));
  write_bytes(v1_->file.path, bytes);

  auto snap = std::make_shared<Snapshot>();
  std::string error;
  EXPECT_FALSE(snap->open(v1_->file.path, &error));  // kFull still rejects
  ASSERT_TRUE(snap->open(v1_->file.path, &error, /*force_read=*/false,
                         graph::SnapshotValidation::kShallow))
      << error;
  const DynamicGraph borrowed = DynamicGraph::borrow(snap);
  EXPECT_DEATH((void)borrowed.neighbors(victim), "neighbor id out of range");
  write_bytes(v1_->file.path, v1_->pristine);
}

TEST_F(SnapshotFuzz, NonFixpointMembershipRejectedByVerifyNotOpen) {
  // A structurally pristine v4 file whose membership is NOT the greedy
  // fixpoint (all-zero membership on a non-empty graph, checksum freshly
  // computed by the writer): open() must accept it — nothing is memory-
  // unsafe about it — and verify() must name the fixpoint violation.
  const DynamicGraph g = churned_graph(120, 31, 360);
  const core::CascadeEngine engine(g, 7);
  std::vector<std::uint64_t> keys(g.id_bound(), 0);
  for (NodeId v = 0; v < g.id_bound(); ++v)
    keys[v] = engine.priorities().key_or_zero(v);
  const std::vector<std::uint8_t> all_out(g.id_bound(), 0);
  graph::EngineStateView state;
  state.keys = keys;
  state.membership = all_out;
  state.priority_seed = 7;
  TempFile file("nonfix.snap");
  graph::SnapshotImage image = graph::capture_snapshot(g, state);
  ASSERT_TRUE(util::publish_staged(file.path, image, {}, nullptr));

  Snapshot snap;
  std::string error;
  ASSERT_TRUE(snap.open(file.path, &error)) << error;
  EXPECT_FALSE(snap.verify(&error));
  EXPECT_NE(error.find("fixpoint"), std::string::npos) << error;
}

TEST_F(SnapshotFuzz, ResealedStructuralMutantsRejectedByVerifyNotOpenV4) {
  // Each mutant keeps every id in range and the checksum valid, so open()
  // accepts it and only verify()'s table-free pass can reject it.
  graph::SnapshotHeader header{};
  std::memcpy(&header, v4_->pristine.data(), sizeof(header));
  graph::SnapshotEngineExt ext{};
  std::memcpy(&ext, v4_->pristine.data() + sizeof(header), sizeof(ext));
  Snapshot pristine;
  std::string error;
  ASSERT_TRUE(pristine.open(v4_->file.path, &error)) << error;
  NodeId victim = graph::kInvalidNode;  // a live node with >= 2 neighbors
  NodeId dead = graph::kInvalidNode;
  NodeId stranger = graph::kInvalidNode;  // live, not adjacent to victim
  for (NodeId v = 0; v < pristine.id_bound(); ++v) {
    if (!pristine.alive(v)) {
      if (dead == graph::kInvalidNode) dead = v;
    } else if (victim == graph::kInvalidNode && pristine.degree(v) >= 2) {
      victim = v;
    }
  }
  ASSERT_NE(victim, graph::kInvalidNode);
  ASSERT_NE(dead, graph::kInvalidNode);
  const auto nbrs = pristine.neighbors(victim);
  for (NodeId v = 0; v < pristine.id_bound() && stranger == graph::kInvalidNode; ++v)
    if (v != victim && pristine.alive(v) &&
        std::find(nbrs.begin(), nbrs.end(), v) == nbrs.end())
      stranger = v;
  ASSERT_NE(stranger, graph::kInvalidNode);
  const std::size_t first_entry = static_cast<std::size_t>(
      header.neighbors_off + sizeof(NodeId) * pristine.csr_offsets()[victim]);
  const NodeId second_neighbor = nbrs[1];
  pristine = Snapshot();  // release the mapping before rewriting the file

  const auto rejected = [&](const std::string& what, const std::string& want,
                            const auto& mutate) {
    std::vector<std::uint8_t> bytes = v4_->pristine;
    mutate(bytes);
    reseal_snapshot(bytes);
    write_bytes(v4_->file.path, bytes);
    Snapshot snap;
    std::string err;
    ASSERT_TRUE(snap.open(v4_->file.path, &err)) << what << ": " << err;
    EXPECT_FALSE(snap.verify(&err)) << what;
    EXPECT_NE(err.find(want), std::string::npos) << what << ": " << err;
    exercise(v4_->file.path, 7);
  };
  const auto set_first_neighbor = [&](NodeId id) {
    return [&, id](std::vector<std::uint8_t>& bytes) {
      std::memcpy(bytes.data() + first_entry, &id, sizeof id);
    };
  };
  rejected("redirected neighbor id", "not symmetric", set_first_neighbor(stranger));
  rejected("duplicate entry", "duplicate adjacency entry",
           set_first_neighbor(second_neighbor));
  rejected("self-loop", "self-loop", set_first_neighbor(victim));
  rejected("entry naming a dead node", "dead node", set_first_neighbor(dead));
  rejected("membership off the fixpoint", "fixpoint", [&](std::vector<std::uint8_t>& bytes) {
    // Flip the victim's membership and keep mis_size consistent with it,
    // so open()'s popcount check passes.
    std::uint8_t& member = bytes[static_cast<std::size_t>(ext.membership_off) + victim];
    member ^= 1U;
    std::uint64_t mis_size = ext.mis_size;
    mis_size = member != 0 ? mis_size + 1 : mis_size - 1;
    std::memcpy(bytes.data() + sizeof(header) + offsetof(graph::SnapshotEngineExt, mis_size),
                &mis_size, sizeof mis_size);
  });
  write_bytes(v4_->file.path, v4_->pristine);
}

}  // namespace
