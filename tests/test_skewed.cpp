// Skewed-workload subsystem tests: generator correctness for the
// heavy-tailed graph families (Chung-Lu tail exponent, planted-partition
// assortativity), the degree-tail statistics, determinism and semantics of
// the adversarial churn policies, SNAP edge-list ingestion round-trips, and
// oracle agreement of every engine under hub-targeting churn.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/cascade_engine.hpp"
#include "core/dist_mis.hpp"
#include "core/greedy_mis.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "support.hpp"
#include "util/rng.hpp"
#include "workload/churn.hpp"
#include "workload/distributed.hpp"
#include "workload/edge_list.hpp"
#include "workload/skewed.hpp"
#include "workload/trace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace dmis;
using graph::NodeId;

using test::TempFile;

// ---------------------------------------------------------------- generators

TEST(SkewedGenerators, ChungLuTailExponentNearTarget) {
  util::Rng rng(7);
  const auto g = graph::chung_lu(20'000, 2.5, 8.0, rng);
  // The min(1, ·) head truncation shaves some mass off the hubs, so the
  // realized average lands below the target — but it must be in the right
  // ballpark, and the Hill MLE over the tail must recover an exponent near
  // the requested 2.5 (a uniform graph fits ~4+; see the control below).
  const double avg = graph::degree_summary(g).average;
  EXPECT_GT(avg, 4.0);
  EXPECT_LT(avg, 10.0);
  const graph::DegreeTail tail = graph::degree_tail(g);
  EXPECT_GT(tail.tail_count, 1000U);
  EXPECT_GT(tail.tail_exponent, 2.0);
  EXPECT_LT(tail.tail_exponent, 3.2);
  // Heavy tail: the max degree must dwarf the median.
  EXPECT_GT(tail.maximum, 10 * tail.p50);
}

TEST(SkewedGenerators, UniformControlFitsFlatterExponent) {
  util::Rng rng(7);
  const auto uniform = graph::random_avg_degree(20'000, 8.0, rng);
  // The Hill MLE only measures the tail when x_min sits past the bulk: at
  // the default x_min=5 a Poisson(8) degree distribution is mostly *above*
  // the cutoff and the fit reads the bulk. Cut at 12 (past the mean) and
  // the super-exponential decay fits a much steeper exponent than any power
  // law the Chung-Lu test accepts.
  const graph::DegreeTail tail = graph::degree_tail(uniform, /*x_min=*/12);
  EXPECT_GT(tail.tail_exponent, 3.5);
  EXPECT_LT(tail.maximum, 40U);
}

TEST(SkewedGenerators, PlantedPartitionIsAssortative) {
  util::Rng rng(11);
  const NodeId n = 800;
  const NodeId communities = 8;
  const auto g = graph::planted_partition(n, communities, 0.10, 0.005, rng);
  const NodeId block = n / communities;
  std::size_t intra = 0, inter = 0;
  g.for_each_edge([&](NodeId u, NodeId v) {
    if (u / block == v / block) ++intra;
    else ++inter;
  });
  ASSERT_GT(intra, 0U);
  // Per-pair density: intra pairs are ~p_in, inter ~p_out (20x apart; 5x
  // leaves room for sampling noise). Pair counts: C(block,2) per block vs
  // the rest.
  const double intra_pairs =
      static_cast<double>(communities) * block * (block - 1) / 2.0;
  const double total_pairs = static_cast<double>(n) * (n - 1) / 2.0;
  const double intra_density = static_cast<double>(intra) / intra_pairs;
  const double inter_density = static_cast<double>(inter) / (total_pairs - intra_pairs);
  EXPECT_GT(intra_density, 5.0 * inter_density);
  EXPECT_NEAR(intra_density, 0.10, 0.03);
}

TEST(SkewedGenerators, PlantedPartitionDegenerateCases) {
  util::Rng rng(3);
  // One community == plain ER at p_in; p_in == p_out == ER everywhere.
  const auto one = graph::planted_partition(200, 1, 0.05, 0.05, rng);
  EXPECT_EQ(one.node_count(), 200U);
  const auto flat = graph::planted_partition(200, 4, 0.03, 0.03, rng);
  EXPECT_EQ(flat.node_count(), 200U);
}

// ---------------------------------------------------------------- degree tail

TEST(DegreeTail, StarIsOneSpilledHub) {
  const auto g = graph::star(100);
  const graph::DegreeTail tail = graph::degree_tail(g);
  EXPECT_EQ(tail.p50, 1U);
  EXPECT_EQ(tail.maximum, 99U);
  EXPECT_EQ(tail.spilled, 1U);  // only the center exceeds the inline record
  EXPECT_NEAR(tail.spilled_fraction, 0.01, 1e-9);
  // A single tail point (the center) is not a fit.
  EXPECT_EQ(tail.tail_count, 1U);
  EXPECT_EQ(tail.tail_exponent, 0.0);
}

TEST(DegreeTail, EmptyGraphIsAllZero) {
  const graph::DynamicGraph g;
  const graph::DegreeTail tail = graph::degree_tail(g);
  EXPECT_EQ(tail.maximum, 0U);
  EXPECT_EQ(tail.spilled, 0U);
  EXPECT_EQ(tail.tail_exponent, 0.0);
}

// ------------------------------------------------------------ churn policies

workload::Trace generate_skewed(const graph::DynamicGraph& g,
                                workload::SkewedChurnConfig config,
                                std::uint64_t seed, std::size_t ops) {
  workload::SkewedChurnGenerator gen(g, config, seed);
  return gen.generate(ops);
}

bool traces_equal(const workload::Trace& a, const workload::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].u != b[i].u || a[i].v != b[i].v ||
        a[i].neighbors != b[i].neighbors)
      return false;
  }
  return true;
}

TEST(SkewedChurn, DeterministicUnderFixedSeed) {
  util::Rng rng(21);
  const auto g = graph::barabasi_albert(300, 3, rng);
  for (const auto policy :
       {workload::ChurnPolicy::kHubKill, workload::ChurnPolicy::kBurstMute,
        workload::ChurnPolicy::kFlashCrowd}) {
    workload::SkewedChurnConfig config;
    config.policy = policy;
    // The seeding contract: the op stream is a pure function of
    // (initial graph, config, seed).
    const workload::Trace first = generate_skewed(g, config, 1234, 400);
    const workload::Trace second = generate_skewed(g, config, 1234, 400);
    EXPECT_TRUE(traces_equal(first, second))
        << "policy " << workload::to_string(policy) << " not deterministic";
    const workload::Trace other_seed = generate_skewed(g, config, 1235, 400);
    EXPECT_FALSE(traces_equal(first, other_seed))
        << "policy " << workload::to_string(policy) << " ignores the seed";
  }
}

TEST(SkewedChurn, HubKillRemovesTheMaxDegreeNode) {
  // On a star the max-degree node is unambiguous: the first kill must
  // abruptly delete the center.
  workload::SkewedChurnConfig config;
  config.policy = workload::ChurnPolicy::kHubKill;
  config.refill_per_kill = 0;  // kill immediately, no insert phase
  workload::SkewedChurnGenerator gen(graph::star(50), config, 9);
  const workload::GraphOp op = gen.next();
  EXPECT_EQ(op.kind, workload::OpKind::kRemoveNodeAbrupt);
  EXPECT_EQ(op.u, 0U);
}

TEST(SkewedChurn, BurstMuteDeletesAWholeNeighborhood) {
  // Star, hub-seeded burst: the burst must delete the center's neighborhood
  // (capped) and then the center itself, back to back.
  workload::SkewedChurnConfig config;
  config.policy = workload::ChurnPolicy::kBurstMute;
  config.burst_cap = 8;
  config.p_hub_seed = 1.0;
  workload::SkewedChurnGenerator gen(graph::star(30), config, 9);
  std::size_t deletes = 0;
  bool center_died = false;
  for (std::size_t i = 0; i < 9; ++i) {
    const workload::GraphOp op = gen.next();
    ASSERT_TRUE(op.kind == workload::OpKind::kRemoveNodeGraceful ||
                op.kind == workload::OpKind::kRemoveNodeAbrupt)
        << "burst interrupted at op " << i;
    ++deletes;
    center_died |= op.u == 0;
  }
  EXPECT_EQ(deletes, 9U);  // burst_cap leaves + the seed
  EXPECT_TRUE(center_died);
}

TEST(SkewedChurn, FlashCrowdStormsThenCollapses) {
  util::Rng rng(5);
  workload::SkewedChurnConfig config;
  config.policy = workload::ChurnPolicy::kFlashCrowd;
  config.storm_len = 16;
  config.p_collapse = 1.0;  // always collapse so the shape is deterministic
  workload::SkewedChurnGenerator gen(graph::barabasi_albert(60, 3, rng), config, 9);
  for (std::size_t i = 0; i < 16; ++i) {
    const workload::GraphOp op = gen.next();
    EXPECT_EQ(op.kind, workload::OpKind::kAddNode) << "storm interrupted at op " << i;
  }
  const workload::GraphOp collapse = gen.next();
  EXPECT_EQ(collapse.kind, workload::OpKind::kRemoveNodeAbrupt);
}

TEST(SkewedChurn, GeneratorGraphStaysConsistent) {
  // The generator's reference graph must track its own ops: replaying the
  // grow history + generated churn from empty reproduces it exactly.
  util::Rng rng(31);
  const auto g0 = graph::chung_lu(400, 2.5, 6.0, rng);
  workload::Trace trace = workload::grow_trace(g0);
  workload::SkewedChurnConfig config;
  config.policy = workload::ChurnPolicy::kBurstMute;
  workload::SkewedChurnGenerator gen(g0, config, 77);
  const workload::Trace churn = gen.generate(600);
  trace.insert(trace.end(), churn.begin(), churn.end());
  const graph::DynamicGraph replayed = workload::materialize(trace);
  EXPECT_TRUE(replayed == gen.graph());
}

// ------------------------------------------------------------- SNAP ingest

TEST(EdgeListIngest, ParsesCommentsDuplicatesAndSelfLoops) {
  std::istringstream in(
      "# SNAP-style header\n"
      "% matrix-market-style comment\n"
      "\n"
      "7 9\n"
      "9 7\n"        // reverse duplicate
      "9 9\n"        // self loop
      "100 7\n"
      "100\t9\n");   // tab separated
  graph::DynamicGraph g;
  workload::EdgeListStats stats;
  std::string error;
  ASSERT_TRUE(workload::read_edge_list(in, g, &stats, &error)) << error;
  EXPECT_EQ(stats.comments, 3U);
  EXPECT_EQ(stats.parsed, 5U);
  EXPECT_EQ(stats.self_loops, 1U);
  EXPECT_EQ(stats.duplicates, 1U);
  EXPECT_EQ(stats.nodes, 3U);
  EXPECT_EQ(stats.edges, 3U);
  // Dense remap is first-appearance order: 7 -> 0, 9 -> 1, 100 -> 2.
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
}

TEST(EdgeListIngest, RejectsMalformedLines) {
  std::istringstream in("1 2\nnot an edge\n");
  graph::DynamicGraph g;
  std::string error;
  EXPECT_FALSE(workload::read_edge_list(in, g, nullptr, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(EdgeListIngest, RoundTripsThroughTraceFile) {
  // Ingested graph -> grow trace -> binary TraceFile -> replay == original,
  // the exact pipeline tools/dmis_ingest runs.
  std::ostringstream edges;
  util::Rng rng(13);
  const auto original = graph::barabasi_albert(120, 3, rng);
  original.for_each_edge([&](NodeId u, NodeId v) {
    edges << (u * 10 + 3) << ' ' << (v * 10 + 3) << '\n';  // sparse raw ids
  });
  std::istringstream in(edges.str());
  graph::DynamicGraph ingested;
  std::string error;
  ASSERT_TRUE(workload::read_edge_list(in, ingested, nullptr, &error)) << error;
  EXPECT_EQ(ingested.edge_count(), original.edge_count());

  TempFile file("roundtrip.trc");
  const workload::Trace trace = workload::grow_trace(ingested);
  ASSERT_TRUE(workload::TraceFile::save(file.path, trace, &error)) << error;
  workload::TraceFile tf;
  ASSERT_TRUE(tf.open(file.path, &error)) << error;
  ASSERT_TRUE(tf.verify(&error)) << error;
  const graph::DynamicGraph replayed = workload::materialize(tf.to_trace());
  EXPECT_TRUE(replayed == ingested);
}

// ------------------------------------------------------------ oracle checks

/// Replay `ops` generated ops through a CascadeEngine, checking full
/// membership against the sequential greedy oracle after every op.
void check_against_oracle(const graph::DynamicGraph& g0,
                          workload::TraceGenerator& gen, std::size_t ops) {
  core::CascadeEngine engine(g0, /*priority_seed=*/1717);
  for (std::size_t i = 0; i < ops; ++i) {
    const workload::GraphOp op = gen.next();
    workload::apply(engine, op);
    const core::Membership oracle =
        core::greedy_mis(engine.graph(), engine.priorities());
    bool ok = true;
    engine.graph().for_each_node(
        [&](NodeId v) { ok &= engine.in_mis(v) == (oracle[v] != 0); });
    ASSERT_TRUE(ok) << "membership diverged from the greedy oracle at op " << i;
  }
  engine.verify();
  EXPECT_TRUE(engine.graph() == gen.graph());
}

TEST(SkewedChurn, BurstMuteMatchesGreedyOracleEveryOp) {
  util::Rng rng(41);
  const auto g0 = graph::planted_partition(300, 6, 0.08, 0.01, rng);
  workload::SkewedChurnConfig config;
  config.policy = workload::ChurnPolicy::kBurstMute;
  workload::SkewedChurnGenerator gen(g0, config, 501);
  check_against_oracle(g0, gen, 500);
}

TEST(SkewedChurn, HubKillMatchesGreedyOracleEveryOp) {
  util::Rng rng(43);
  const auto g0 = graph::barabasi_albert(250, 4, rng);
  workload::SkewedChurnConfig config;
  config.policy = workload::ChurnPolicy::kHubKill;
  workload::SkewedChurnGenerator gen(g0, config, 503);
  check_against_oracle(g0, gen, 500);
}

TEST(SkewedChurn, DistMisAgreesUnderFlashCrowd) {
  // The distributed engine under insert storms + hub collapse: stream the
  // ops with costs (the bench path) and oracle-verify the final state.
  util::Rng rng(47);
  const auto g0 = graph::chung_lu(500, 2.5, 8.0, rng);
  core::DistMis mis(g0, 2121);
  workload::SkewedChurnConfig config;
  config.policy = workload::ChurnPolicy::kFlashCrowd;
  config.storm_len = 32;
  workload::SkewedChurnGenerator gen(g0, config, 505);
  std::size_t samples = 0;
  workload::stream_churn(mis, gen, 400,
                         [&](const workload::CostSample&) { ++samples; });
  EXPECT_EQ(samples, 400U);
  mis.verify();
  EXPECT_TRUE(mis.graph() == gen.graph());
}

}  // namespace
