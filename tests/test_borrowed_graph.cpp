// Borrowed (zero-copy snapshot-backed) DynamicGraph: differential checks
// against materialized twins.
//
// The contract under test is mode transparency — a graph borrowed from a
// mapped snapshot must be observationally identical to the graph
// DynamicGraph::load materializes from the same file, under every query and
// under arbitrary further mutation (the copy-on-write overlay). The checks
// are differential: drive a borrowed graph and its materialized twin through
// the same seeded op stream and require equality throughout — over a v1
// base (stored edge table, which only the materialized load reads) and a v4
// base (no table; the load hashes the CSR), since a borrowed graph answers
// edge queries from its adjacency lists either way — then push the state
// through write-back (save of a borrowed graph streams clean records from
// the mapping and dirty ones from the overlay) and require the round-tripped
// file to load back equal. Engine-level transparency gets the same
// treatment across every engine: an engine built on a borrowed graph
// (CascadeEngine warm-started from a v4 snapshot, the distributed engines
// from the graph alone) must track a materialized twin bit for bit
// (membership, MIS size, priority-RNG state) through churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/async_mis.hpp"
#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/dist_mis.hpp"
#include "core/engine_snapshot.hpp"
#include "graph/snapshot.hpp"
#include "support.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"
#include "workload/distributed.hpp"
#include "workload/trace.hpp"

namespace {

using namespace dmis;
using graph::DynamicGraph;
using graph::NodeId;
using graph::Snapshot;

using test::churned_graph;
using test::TempFile;

/// Full observational equality, both directions: counts, liveness, every
/// edge (and the sorted for_each_edge lists), and the per-node views
/// (degree + neighbor multiset as a sorted copy — borrowed and materialized
/// adjacency may order neighbors differently only if something is wrong;
/// both derive from the same insertion order, so exact order must match
/// for clean AND dirty nodes).
void expect_same(const DynamicGraph& borrowed, const DynamicGraph& materialized) {
  ASSERT_EQ(borrowed.node_count(), materialized.node_count());
  ASSERT_EQ(borrowed.edge_count(), materialized.edge_count());
  ASSERT_EQ(borrowed.id_bound(), materialized.id_bound());
  ASSERT_TRUE(borrowed == materialized);
  ASSERT_TRUE(materialized == borrowed);
  // for_each_edge as a list, so an edge enumerated twice cannot hide.
  auto be = borrowed.edges();
  auto me = materialized.edges();
  std::sort(be.begin(), be.end());
  std::sort(me.begin(), me.end());
  ASSERT_EQ(be, me);
  for (NodeId v = 0; v < borrowed.id_bound(); ++v) {
    ASSERT_EQ(borrowed.has_node(v), materialized.has_node(v)) << "node " << v;
    if (!borrowed.has_node(v)) continue;
    ASSERT_EQ(borrowed.degree(v), materialized.degree(v)) << "node " << v;
    const auto bn = borrowed.neighbors(v);
    const auto mn = materialized.neighbors(v);
    ASSERT_EQ(bn.size(), mn.size()) << "node " << v;
    for (std::size_t i = 0; i < bn.size(); ++i)
      ASSERT_EQ(bn[i], mn[i]) << "node " << v << " slot " << i;
  }
}

/// Write `g` as the base a borrowed graph reads: a v1 graph snapshot, or
/// the v4 engine snapshot of a CascadeEngine over it.
void save_base(const DynamicGraph& g, bool v4, const std::string& path) {
  if (v4)
    ASSERT_TRUE(core::save_snapshot(core::CascadeEngine(g, /*priority_seed=*/5), path));
  else
    ASSERT_TRUE(g.save(path));
}

TEST(BorrowedGraph, BorrowEqualsLoadOnOpen) {
  const DynamicGraph original = churned_graph(300, 17, 900);
  TempFile file("open.snap");
  ASSERT_TRUE(original.save(file.path));

  auto snap = std::make_shared<Snapshot>();
  std::string error;
  ASSERT_TRUE(snap->open(file.path, &error)) << error;
  const DynamicGraph borrowed = DynamicGraph::borrow(snap);
  const DynamicGraph materialized = DynamicGraph::load(*snap);

  EXPECT_TRUE(borrowed.borrowed());
  EXPECT_FALSE(materialized.borrowed());
  EXPECT_EQ(borrowed.overlay_nodes(), 0U);  // untouched: everything clean
  expect_same(borrowed, materialized);
  EXPECT_TRUE(borrowed == original);
}

TEST(BorrowedGraph, ShallowOpenBorrowEqualsFullOpenBorrow) {
  // kShallow skips the linear validation pass; on a well-formed file the
  // borrowed view must nonetheless be identical to one over a fully
  // validated open (the lazy guards pass silently on clean records).
  const DynamicGraph original = churned_graph(200, 23, 600);
  TempFile file("shallow.snap");
  ASSERT_TRUE(original.save(file.path));

  auto full = std::make_shared<Snapshot>();
  auto shallow = std::make_shared<Snapshot>();
  std::string error;
  ASSERT_TRUE(full->open(file.path, &error)) << error;
  ASSERT_TRUE(shallow->open(file.path, &error, /*force_read=*/false,
                            graph::SnapshotValidation::kShallow))
      << error;
  EXPECT_TRUE(full->deep_validated());
  EXPECT_FALSE(shallow->deep_validated());

  const DynamicGraph a = DynamicGraph::borrow(full);
  const DynamicGraph b = DynamicGraph::borrow(shallow);
  expect_same(b, DynamicGraph::load(*full));
  ASSERT_TRUE(a == b);
}

/// The live node of largest degree (lowest id on ties), or kInvalidNode.
NodeId max_degree_node(const DynamicGraph& g) {
  NodeId best = graph::kInvalidNode;
  g.for_each_node([&](NodeId v) {
    if (best == graph::kInvalidNode || g.degree(v) > g.degree(best)) best = v;
  });
  return best;
}

/// What a fuzz_pair run exercised beyond the random mix.
struct FuzzTally {
  int spilled_hub_kills = 0;  // hub kills of a node past the inline slots
  int base_readds = 0;        // removed base edges added back
};

/// The differential churn fuzz: one seeded op stream, applied in lockstep
/// to the borrowed graph and its materialized twin. Ops are chosen from the
/// twins' (identical) current state, so divergence surfaces as a direct
/// mismatch at the op that caused it. Every 40th op also removes the
/// current max-degree node (the paper's hub adversary), and hub growth ops
/// push that node past the inline slots first, so spilled records are
/// removed on both sides.
void fuzz_pair(DynamicGraph& borrowed, DynamicGraph& materialized,
               std::uint64_t seed, int ops, FuzzTally& seen) {
  util::Rng rng(seed);
  util::Rng sample_rng(seed + 1);
  auto base_edges = materialized.edges();
  std::sort(base_edges.begin(), base_edges.end());
  std::vector<std::pair<NodeId, NodeId>> removed_base;
  for (int i = 0; i < ops; ++i) {
    if (i % 40 == 39) {
      const NodeId hub = max_degree_node(materialized);
      ASSERT_EQ(hub, max_degree_node(borrowed));
      if (hub != graph::kInvalidNode) {
        if (materialized.degree(hub) > DynamicGraph::kInlineNeighbors)
          ++seen.spilled_hub_kills;
        borrowed.remove_node(hub);
        materialized.remove_node(hub);
      }
    }
    const std::uint64_t what = rng.next_u64() % 100;
    const NodeId bound = borrowed.id_bound();
    if (what < 40 && bound >= 2) {
      // Edge toggle (the overlay's bread and butter: COW the touched
      // records, then edit both lists).
      const auto u = static_cast<NodeId>(rng.below(bound));
      const auto v = static_cast<NodeId>(rng.below(bound));
      if (u == v || !borrowed.has_node(u) || !borrowed.has_node(v)) continue;
      const bool had = borrowed.has_edge(u, v);
      ASSERT_EQ(had, materialized.has_edge(u, v)) << "(" << u << "," << v << ")";
      if (had) {
        ASSERT_TRUE(borrowed.remove_edge(u, v));
        ASSERT_TRUE(materialized.remove_edge(u, v));
        const std::pair<NodeId, NodeId> e = std::minmax(u, v);
        if (std::binary_search(base_edges.begin(), base_edges.end(), e))
          removed_base.push_back(e);
      } else {
        ASSERT_TRUE(borrowed.add_edge(u, v));
        ASSERT_TRUE(materialized.add_edge(u, v));
      }
    } else if (what < 50) {
      // Hub growth: the max-degree node gains up to four random live
      // neighbors, so hubs pass the inline slots before the next kill.
      const NodeId hub = max_degree_node(materialized);
      if (hub == graph::kInvalidNode) continue;
      for (int k = 0; k < 4; ++k) {
        const auto v = static_cast<NodeId>(rng.below(bound));
        if (v == hub || !borrowed.has_node(v) || borrowed.has_edge(hub, v)) continue;
        ASSERT_TRUE(borrowed.add_edge(hub, v));
        ASSERT_TRUE(materialized.add_edge(hub, v));
      }
    } else if (what < 55) {
      // A base edge the fuzz removed comes back: the borrowed side must
      // take it as a new entry in both records, like its twin.
      if (removed_base.empty()) continue;
      const auto [u, v] = removed_base[rng.below(removed_base.size())];
      if (!borrowed.has_node(u) || !borrowed.has_node(v)) continue;
      const bool had = borrowed.has_edge(u, v);
      ASSERT_EQ(had, materialized.has_edge(v, u)) << "(" << u << "," << v << ")";
      if (had) continue;
      ASSERT_TRUE(borrowed.add_edge(v, u));
      ASSERT_TRUE(materialized.add_edge(v, u));
      ASSERT_FALSE(borrowed.add_edge(u, v));
      ++seen.base_readds;
    } else if (what < 65) {
      // Node insertion appends past the snapshot's id_bound — borrowed mode
      // must route the fresh record through the overlay index.
      ASSERT_EQ(borrowed.add_node(), materialized.add_node());
    } else if (what < 72 && bound > 0) {
      // Node removal: COWs the victim's neighbors too (their lists shrink).
      const auto start = static_cast<NodeId>(rng.below(bound));
      NodeId victim = graph::kInvalidNode;
      for (NodeId d = 0; d < bound; ++d) {
        const NodeId v = static_cast<NodeId>((start + d) % bound);
        if (borrowed.has_node(v)) { victim = v; break; }
      }
      if (victim == graph::kInvalidNode) continue;
      borrowed.remove_node(victim);
      materialized.remove_node(victim);
    } else if (what < 85 && bound >= 1) {
      // Query probe: neighbors + has_edge agreement on a random live node.
      const auto v = static_cast<NodeId>(rng.below(bound));
      if (!borrowed.has_node(v)) continue;
      ASSERT_EQ(borrowed.degree(v), materialized.degree(v));
      for (const NodeId u : borrowed.neighbors(v)) {
        ASSERT_TRUE(materialized.has_edge(u, v));
        ASSERT_TRUE(borrowed.has_edge(u, v));
      }
    } else {
      // Edge probe: an edge sampled from the materialized twin (only a
      // materialized graph has a table to sample) must be present in the
      // borrowed graph too.
      NodeId u = 0, v = 0;
      const bool sampled = materialized.sample_edge(sample_rng, u, v);
      ASSERT_EQ(sampled, borrowed.edge_count() > 0);
      if (sampled) {
        EXPECT_TRUE(borrowed.has_edge(u, v));
      }
    }
    if (i % 50 == 0) expect_same(borrowed, materialized);
  }
  expect_same(borrowed, materialized);
}

TEST(BorrowedGraph, DifferentialChurnMatchesMaterializedTwin) {
  for (const bool v4 : {false, true}) {
    for (const std::uint64_t seed : {3ULL, 29ULL, 71ULL}) {
      const DynamicGraph original = churned_graph(250, seed, 750);
      TempFile file("fuzz.snap");
      save_base(original, v4, file.path);
      auto snap = std::make_shared<Snapshot>();
      std::string error;
      ASSERT_TRUE(snap->open(file.path, &error)) << error;
      ASSERT_EQ(snap->has_edge_table(), !v4);
      DynamicGraph borrowed = DynamicGraph::borrow(snap);
      DynamicGraph materialized = DynamicGraph::load(*snap);
      expect_same(borrowed, materialized);
      FuzzTally tally;
      fuzz_pair(borrowed, materialized, seed * 13 + 5, 2000, tally);
      EXPECT_GT(borrowed.overlay_nodes(), 0U);  // the fuzz must have dirtied some
      EXPECT_GT(tally.spilled_hub_kills, 0) << "seed " << seed;
      EXPECT_GT(tally.base_readds, 0) << "seed " << seed;
    }
  }
}

TEST(BorrowedGraph, EdgeQueriesBetweenSpilledNodesOnV4Base) {
  // Base membership scans the shorter endpoint's CSR list. Two hubs past
  // the 14 inline slots, adjacent to each other and sharing neighbors,
  // exercise it where both lists are long, before and after churn.
  DynamicGraph original(60);
  const NodeId a = 0;
  const NodeId b = 1;
  const NodeId c = 2;  // a third hub, adjacent to neither a nor b
  ASSERT_TRUE(original.add_edge(a, b));
  for (NodeId v = 3; v < 25; ++v) {
    ASSERT_TRUE(original.add_edge(a, v));
    ASSERT_TRUE(original.add_edge(b, v + 10));
  }
  for (NodeId v = 30; v < 50; ++v) ASSERT_TRUE(original.add_edge(c, v));
  ASSERT_GT(original.degree(a), DynamicGraph::kInlineNeighbors);
  ASSERT_GT(original.degree(b), DynamicGraph::kInlineNeighbors);
  ASSERT_GT(original.degree(c), DynamicGraph::kInlineNeighbors);
  TempFile file("hubs.snap");
  save_base(original, /*v4=*/true, file.path);
  auto snap = std::make_shared<Snapshot>();
  std::string error;
  ASSERT_TRUE(snap->open(file.path, &error)) << error;
  DynamicGraph borrowed = DynamicGraph::borrow(snap);
  DynamicGraph materialized = DynamicGraph::load(*snap);
  const auto check_hubs = [&](bool ab, bool ac) {
    for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
      EXPECT_EQ(borrowed.has_edge(x, y), ab);
      EXPECT_EQ(materialized.has_edge(x, y), ab);
    }
    EXPECT_EQ(borrowed.has_edge(a, c), ac);
    EXPECT_FALSE(borrowed.has_edge(c, b));
    expect_same(borrowed, materialized);
  };
  check_hubs(/*ab=*/true, /*ac=*/false);
  for (DynamicGraph* g : {&borrowed, &materialized}) {
    ASSERT_TRUE(g->remove_edge(b, a));  // base edge between two hubs
    ASSERT_TRUE(g->add_edge(a, c));     // new edge between two hubs
    ASSERT_FALSE(g->add_edge(c, a));
  }
  check_hubs(/*ab=*/false, /*ac=*/true);
  for (DynamicGraph* g : {&borrowed, &materialized}) {
    ASSERT_TRUE(g->add_edge(a, b));  // the removed base edge comes back
    ASSERT_FALSE(g->add_edge(b, a));
    g->remove_node(c);
  }
  check_hubs(/*ab=*/true, /*ac=*/false);
  EXPECT_GT(borrowed.overlay_nodes(), 0U);
}

TEST(BorrowedGraph, SpillBoundaryCrossingUnderCow) {
  // Push one clean base node's degree across the inline-record capacity:
  // the COW copy must spill to an overflow list exactly like a materialized
  // record, then drain back below the boundary without corruption.
  DynamicGraph original(40);
  for (NodeId v = 1; v <= 6; ++v) ASSERT_TRUE(original.add_edge(0, v));
  TempFile file("spill.snap");
  ASSERT_TRUE(original.save(file.path));
  auto snap = std::make_shared<Snapshot>();
  std::string error;
  ASSERT_TRUE(snap->open(file.path, &error)) << error;
  DynamicGraph borrowed = DynamicGraph::borrow(snap);
  DynamicGraph materialized = DynamicGraph::load(*snap);

  // 6 base neighbors + 24 more crosses any plausible inline capacity.
  for (NodeId v = 7; v <= 30; ++v) {
    ASSERT_TRUE(borrowed.add_edge(0, v));
    ASSERT_TRUE(materialized.add_edge(0, v));
    expect_same(borrowed, materialized);
  }
  for (NodeId v = 1; v <= 30; ++v) {
    ASSERT_TRUE(borrowed.remove_edge(0, v));
    ASSERT_TRUE(materialized.remove_edge(0, v));
  }
  expect_same(borrowed, materialized);
  EXPECT_EQ(borrowed.degree(0), 0U);
}

TEST(BorrowedGraph, WriteBackRoundTripsThroughAV1Save) {
  // A v1 save of a borrowed graph builds the edge table it stores from the
  // graph's edges (each live node's current list: clean from the mapping,
  // dirty from the overlay). The resulting file must load back semantically
  // equal to the churned state — the twin saved from materialized mode pins
  // the expectation; the tables differ in tombstone placement, so the check
  // compares graphs, not bytes.
  const DynamicGraph original = churned_graph(220, 41, 660);
  TempFile base("wb_base.snap");
  ASSERT_TRUE(original.save(base.path));
  auto snap = std::make_shared<Snapshot>();
  std::string error;
  ASSERT_TRUE(snap->open(base.path, &error)) << error;
  DynamicGraph borrowed = DynamicGraph::borrow(snap);
  DynamicGraph materialized = DynamicGraph::load(*snap);
  FuzzTally tally;
  fuzz_pair(borrowed, materialized, 57, 1500, tally);

  TempFile from_borrowed("wb_b.snap");
  TempFile from_materialized("wb_m.snap");
  ASSERT_TRUE(borrowed.save(from_borrowed.path));
  ASSERT_TRUE(materialized.save(from_materialized.path));

  Snapshot sb, sm;
  ASSERT_TRUE(sb.open(from_borrowed.path, &error)) << error;
  ASSERT_TRUE(sm.open(from_materialized.path, &error)) << error;
  EXPECT_TRUE(sb.verify(&error)) << error;  // checksum + undirectedness
  const DynamicGraph lb = DynamicGraph::load(sb);
  const DynamicGraph lm = DynamicGraph::load(sm);
  expect_same(lb, lm);  // both materialized now; full structural agreement
  EXPECT_TRUE(lb == borrowed);
  EXPECT_TRUE(lb == materialized);
}

// ---- engine-level transparency: every engine over a borrowed graph ----

/// Drive the borrowed-constructed engine set and the materialized twins
/// through the same churn trace; memberships must agree after every op and
/// the cascade pair must also agree on the priority-RNG stream (so future
/// draws stay aligned forever). The distributed twins start from the graph
/// alone; both draw the same keys from the same seed, so the comparison
/// stays exact.
TEST(BorrowedEngines, EveryEngineTracksMaterializedTwins) {
  const std::uint64_t seed = 31;
  const DynamicGraph g0 = churned_graph(150, seed, 450);
  core::CascadeEngine source(g0, /*priority_seed=*/seed * 3 + 1);
  TempFile file("engines.snap");
  ASSERT_TRUE(core::save_snapshot(source, file.path));

  auto snap = std::make_shared<Snapshot>();
  std::string error;
  ASSERT_TRUE(snap->open(file.path, &error)) << error;
  ASSERT_TRUE(snap->has_engine_state());

  // Borrowed set (graphs read the mapping in place). The second cascade
  // pair is fed batch-of-one apply_batch, the path MisService runs.
  const auto borrow = [&] { return DynamicGraph::borrow(snap); };
  core::CascadeEngine cascade_b(borrow(), *snap, seed * 3 + 1);
  core::CascadeEngine batched_b(borrow(), *snap, seed * 3 + 1);
  core::DistMis dist_b(borrow(), seed * 3 + 1);
  core::AsyncMis async_b(borrow(), seed * 3 + 1, /*scheduler_seed=*/seed + 5);
  EXPECT_TRUE(cascade_b.graph().borrowed());

  // Materialized twins from the same file.
  const auto load = [&] { return DynamicGraph::load(*snap); };
  core::CascadeEngine cascade_m(load(), *snap, seed * 3 + 1);
  core::CascadeEngine batched_m(load(), *snap, seed * 3 + 1);
  core::DistMis dist_m(load(), seed * 3 + 1);
  core::AsyncMis async_m(load(), seed * 3 + 1, seed + 5);
  EXPECT_FALSE(cascade_m.graph().borrowed());

  workload::ChurnConfig config;
  config.p_abrupt = 0.5;
  workload::ChurnGenerator gen(g0, config, seed + 99);
  core::Batch batch;
  for (int i = 0; i < 400; ++i) {
    const workload::GraphOp op = gen.next();
    workload::apply(cascade_b, op);
    workload::apply(cascade_m, op);
    batch.clear();
    workload::append_op(batch, op);
    (void)core::apply_batch(batched_b, batch);
    (void)core::apply_batch(batched_m, batch);
    (void)workload::apply_with_cost(dist_b, op);
    (void)workload::apply_with_cost(dist_m, op);
    (void)workload::apply_with_cost(async_b, op);
    (void)workload::apply_with_cost(async_m, op);

    ASSERT_EQ(cascade_b.mis_size(), cascade_m.mis_size()) << "op " << i;
    bool agree = true;
    cascade_m.graph().for_each_node([&](NodeId v) {
      agree &= cascade_b.in_mis(v) == cascade_m.in_mis(v) &&
               batched_b.in_mis(v) == batched_m.in_mis(v) &&
               dist_b.in_mis(v) == dist_m.in_mis(v) &&
               async_b.in_mis(v) == async_m.in_mis(v);
    });
    ASSERT_TRUE(agree) << "borrowed/materialized membership divergence at op " << i;
  }

  EXPECT_EQ(core::state_diff(cascade_b, cascade_m), "");
  EXPECT_EQ(core::state_diff(batched_b, batched_m), "");
  ASSERT_TRUE(dist_b.graph() == dist_m.graph());
  ASSERT_TRUE(async_b.graph() == async_m.graph());
  cascade_b.verify();
  batched_b.verify();
  dist_b.verify();
  async_b.verify();
}

TEST(BorrowedEngines, CheckpointOfBorrowedEngineWarmStartsEqual) {
  // Full circle: borrow-start an engine, churn it, checkpoint it (the
  // writer streams clean regions from the mapping), then warm-start a new
  // engine from that checkpoint and require equality with the live one.
  const std::uint64_t seed = 47;
  const DynamicGraph g0 = churned_graph(120, seed, 360);
  core::CascadeEngine source(g0, seed);
  TempFile first("ckpt1.snap");
  ASSERT_TRUE(core::save_snapshot(source, first.path));

  auto snap = std::make_shared<Snapshot>();
  std::string error;
  ASSERT_TRUE(snap->open(first.path, &error)) << error;
  core::CascadeEngine live(DynamicGraph::borrow(snap), *snap, seed);
  util::Rng rng(seed + 7);
  for (int i = 0; i < 500; ++i) {
    const auto u = static_cast<NodeId>(rng.below(live.graph().id_bound()));
    const auto v = static_cast<NodeId>(rng.below(live.graph().id_bound()));
    if (u == v || !live.graph().has_node(u) || !live.graph().has_node(v)) continue;
    if (live.graph().has_edge(u, v)) live.remove_edge(u, v);
    else live.add_edge(u, v);
  }

  TempFile second("ckpt2.snap");
  ASSERT_TRUE(core::save_snapshot(live, second.path));
  Snapshot reopened;
  ASSERT_TRUE(reopened.open(second.path, &error)) << error;
  EXPECT_TRUE(reopened.verify(&error)) << error;  // incl. greedy fixpoint
  const core::CascadeEngine warm(DynamicGraph::load(reopened), reopened, seed,
                                 graph::SnapshotLoad::kWarm);
  EXPECT_EQ(core::state_diff(warm, live), "");
  warm.verify();
}

}  // namespace
