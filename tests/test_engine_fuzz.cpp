// Seeded randomized differential fuzzer over every MIS engine in the
// repository.
//
// Each fuzz case generates a random churn trace (mixed graceful/abrupt edge
// and node ops, unmutes included, across several n / density regimes) and
// replays it op by op through five dynamic engines — CascadeEngine, a second
// CascadeEngine driven through batch-of-one core::apply_batch (the path
// MisService runs), DistMis, AsyncMis and TemplateEngine (the paper's
// Algorithm 1) — plus the sequential random-greedy oracle. History
// independence makes the comparison exact:
// same priority seed ⇒ same permutation ⇒ the engines must agree on the
// full membership after EVERY op and report identical per-op adjustment
// counts; the batch-of-one engine must also evaluate exactly the nodes the
// single-op engine does, since both seed by the same §3 rule. Divergence
// is reported with the regime, the seed and the op index;
// because every op is checked, the reported index is already minimal — the
// shortest failing prefix of that trace ends exactly there.
//
// On divergence the fuzzer additionally dumps a self-contained repro to
// $TEST_TMPDIR (falling back to the system temp dir): a binary TraceFile
// whose replay from an empty engine reproduces the failure at its final op,
// plus a version-2 snapshot of the pre-failure engine state (graph + keys +
// membership rebuilt by replaying the passing prefix), so the failure can
// be re-driven offline in one command without rerunning the fuzzer:
//
//   dmis_snapshot verify --in <dump>.snap   # pre-failure state is a fixpoint
//   dmis_snapshot save --trace <dump>.trc --engine --priority-seed <printed>
//
// The regimes × seeds grid below yields 16 traces × 5 engines = 80
// trace/engine combinations (the tier-1 bar is >= 65); graphs are kept small
// enough that the whole suite stays well inside the ctest budget even under
// the sanitizer jobs. A separate multi-op regime feeds apply_batch batches
// of 2-256 ops, the shape the service runs, against the oracle and a
// single-op twin.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/dist_mis.hpp"
#include "core/engine_snapshot.hpp"
#include "core/greedy_mis.hpp"
#include "core/template_engine.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"
#include "workload/distributed.hpp"
#include "workload/skewed.hpp"
#include "workload/trace.hpp"
#include "workload/trace_file.hpp"

namespace {

using namespace dmis;
using graph::NodeId;

struct Regime {
  const char* name;
  NodeId n;
  double deg;
  std::size_t ops;
  workload::ChurnConfig config;
};

// Mixed-op regimes: tiny (id-space corner cases at near-empty sizes), sparse
// and dense balanced churn, and the Lemma 13 regime (deletion-heavy, every
// deletion abrupt, so multi-source recoveries are constant).
const Regime kRegimes[] = {
    {"tiny", 10, 2.0, 200, {0.30, 0.25, 0.25, 0.20, 2, 0.5, 0.3}},
    {"sparse-churn", 120, 3.0, 300, {0.35, 0.35, 0.15, 0.15, 3, 0.5, 0.2}},
    {"dense-churn", 80, 12.0, 250, {0.35, 0.35, 0.15, 0.15, 8, 0.5, 0.1}},
    {"abrupt-heavy", 150, 6.0, 250, {0.15, 0.40, 0.10, 0.35, 4, 1.0, 0.0}},
};
constexpr std::uint64_t kSeedsPerRegime = 4;
constexpr unsigned kEnginesPerTrace = 5;

/// Where divergence repros land: $TEST_TMPDIR when the harness provides one
/// (bazel-style; the CI jobs export it), the system temp dir otherwise.
std::string dump_dir() {
  if (const char* dir = std::getenv("TEST_TMPDIR"); dir != nullptr && *dir != '\0')
    return dir;
  return std::filesystem::temp_directory_path().string();
}

/// Dump the one-command offline repro for a divergence at `ops[fail]`:
/// a TraceFile of grow(g0) + ops[0..fail] (replayable from empty) and a v2
/// snapshot of the pre-failure state (grow + passing prefix replayed into a
/// fresh CascadeEngine under the same priority seed). Returns the message
/// describing where everything landed.
std::string dump_divergence(const char* regime_name, std::uint64_t seed,
                            std::uint64_t prio_seed, const graph::DynamicGraph& g0,
                            const workload::Trace& ops, std::size_t fail) {
  std::ostringstream os;
  const std::string stem = dump_dir() + "/dmis_fuzz_" + regime_name + "_s" +
                           std::to_string(seed);
  workload::Trace full = workload::grow_trace(g0);
  const std::size_t prefix_len = full.size() + fail;
  full.insert(full.end(), ops.begin(), ops.begin() + static_cast<long>(fail) + 1);

  std::string error;
  const std::string trace_path = stem + ".trc";
  if (!workload::TraceFile::save(trace_path, full, &error)) {
    os << " (trace dump failed: " << error << ")";
    return os.str();
  }
  // Pre-failure state: everything up to but excluding the failing op.
  core::CascadeEngine pre(g0, prio_seed);
  for (std::size_t i = 0; i < fail; ++i) workload::apply(pre, ops[i]);
  const std::string snap_path = stem + ".snap";
  if (!core::save_snapshot(pre, snap_path, &error)) {
    os << " (snapshot dump failed: " << error << ")";
    return os.str();
  }
  os << "\n  repro dumped: trace=" << trace_path << " (" << full.size()
     << " ops; the failure is op " << full.size() - 1
     << ", replay the first " << prefix_len << " to stop just before it)"
     << "\n  pre-failure state: snapshot=" << snap_path << " (v2, priority seed "
     << prio_seed << ")"
     << "\n  one-command check: dmis_snapshot verify --in " << snap_path;
  return os.str();
}

/// Human-readable failure locator. The op index is minimal by construction:
/// every earlier op passed the same checks.
std::string locate(const char* regime_name, std::uint64_t seed, std::size_t op_index,
                   const workload::GraphOp& op) {
  std::ostringstream os;
  os << "regime=" << regime_name << " seed=" << seed
     << " minimized-op-index=" << op_index << " kind=" << static_cast<int>(op.kind)
     << " u=" << op.u << " v=" << op.v
     << " (replay the first " << (op_index + 1) << " ops of this trace to reproduce)";
  return os.str();
}

/// One fuzz case over an arbitrary generator (uniform churn or a skewed
/// adversarial policy): drive all engines through one random trace,
/// checking adjustments and full membership against the greedy oracle
/// after every op (graphs are small; exhaustive checking is what makes the
/// reported op index minimal). Returns false on the first divergence, after
/// dumping the offline repro for it.
bool run_trace_case(const char* regime_name, const graph::DynamicGraph& g0,
                    workload::TraceGenerator& gen, std::size_t ops,
                    std::uint64_t seed) {
  const std::uint64_t prio_seed = seed * 1000 + 17;

  core::CascadeEngine cascade(g0, prio_seed);
  core::CascadeEngine batched(g0, prio_seed);
  core::DistMis dist(g0, prio_seed);
  core::AsyncMis async(g0, prio_seed, /*scheduler_seed=*/seed + 5);
  core::TemplateEngine templ(g0, prio_seed);

  workload::Trace applied;
  applied.reserve(ops);
  core::Batch batch;
  for (std::size_t i = 0; i < ops; ++i) {
    const workload::GraphOp op = gen.next();
    applied.push_back(op);

    workload::apply(cascade, op);
    const std::uint64_t want_adjustments = cascade.last_report().adjustments;
    const std::uint64_t want_evaluated = cascade.last_report().evaluated;

    batch.clear();
    workload::append_op(batch, op);
    const core::BatchResult batched_result = core::apply_batch(batched, batch);
    const workload::CostSample dist_sample = workload::apply_with_cost(dist, op);
    const workload::CostSample async_sample = workload::apply_with_cost(async, op);
    workload::apply(templ, op);
    const std::uint64_t templ_adjustments = templ.last_report().adjustments;

    if (batched_result.report.adjustments != want_adjustments ||
        dist_sample.cost.adjustments != want_adjustments ||
        async_sample.cost.adjustments != want_adjustments ||
        templ_adjustments != want_adjustments) {
      ADD_FAILURE() << "adjustment-count divergence: cascade=" << want_adjustments
                    << " batched=" << batched_result.report.adjustments
                    << " dist=" << dist_sample.cost.adjustments
                    << " async=" << async_sample.cost.adjustments
                    << " template=" << templ_adjustments << "\n  "
                    << locate(regime_name, seed, i, op)
                    << dump_divergence(regime_name, seed, prio_seed, g0, applied, i);
      return false;
    }
    // One op seeds the batch cascade exactly as it seeds the single-op
    // update (§3), so both evaluate the same nodes.
    if (batched_result.report.evaluated != want_evaluated) {
      ADD_FAILURE() << "evaluated-count divergence: cascade=" << want_evaluated
                    << " batched=" << batched_result.report.evaluated << "\n  "
                    << locate(regime_name, seed, i, op);
      return false;
    }

    // Full-membership agreement, every op. The oracle recompute reuses the
    // cascade's PriorityMap (already assigned for every live id, so ensure()
    // draws nothing and the shared RNG stream is untouched).
    const core::Membership oracle = core::greedy_mis(cascade.graph(), cascade.priorities());
    bool members_ok = true;
    cascade.graph().for_each_node([&](NodeId v) {
      const bool want = oracle[v] != 0;
      members_ok &= cascade.in_mis(v) == want && batched.in_mis(v) == want &&
                    dist.in_mis(v) == want && async.in_mis(v) == want &&
                    templ.in_mis(v) == want;
    });
    if (!members_ok) {
      NodeId bad = graph::kInvalidNode;
      cascade.graph().for_each_node([&](NodeId v) {
        const bool want = oracle[v] != 0;
        if (bad == graph::kInvalidNode &&
            (cascade.in_mis(v) != want || batched.in_mis(v) != want ||
             dist.in_mis(v) != want || async.in_mis(v) != want ||
             templ.in_mis(v) != want))
          bad = v;
      });
      ADD_FAILURE() << "membership divergence from the greedy oracle at node " << bad
                    << ": oracle=" << (oracle[bad] != 0)
                    << " cascade=" << cascade.in_mis(bad)
                    << " batched=" << batched.in_mis(bad)
                    << " dist=" << dist.in_mis(bad) << " async=" << async.in_mis(bad)
                    << " template=" << templ.in_mis(bad)
                    << "\n  " << locate(regime_name, seed, i, op)
                    << dump_divergence(regime_name, seed, prio_seed, g0, applied, i);
      return false;
    }
  }

  // End-of-trace deep checks: internal invariants and graph agreement.
  cascade.verify();
  batched.verify();
  dist.verify();
  async.verify();
  templ.verify();
  EXPECT_TRUE(cascade.graph() == gen.graph());
  EXPECT_TRUE(batched.graph() == gen.graph());
  EXPECT_TRUE(dist.graph() == gen.graph());
  EXPECT_TRUE(async.graph() == gen.graph());
  EXPECT_TRUE(templ.graph() == gen.graph());
  return true;
}

/// The uniform-mix case: random base graph + ChurnGenerator.
bool run_case(const Regime& regime, std::uint64_t seed) {
  util::Rng graph_rng(seed);
  const graph::DynamicGraph g0 =
      graph::random_avg_degree(regime.n, regime.deg, graph_rng);
  workload::ChurnGenerator gen(g0, regime.config, seed + 99);
  return run_trace_case(regime.name, g0, gen, regime.ops, seed);
}

TEST(EngineFuzz, DifferentialAcrossAllEnginesAndRegimes) {
  unsigned combos = 0;
  for (const Regime& regime : kRegimes) {
    for (std::uint64_t s = 0; s < kSeedsPerRegime; ++s) {
      const std::uint64_t seed = s * 7919 + 13;
      if (!run_case(regime, seed)) {
        // First divergence already reported with its minimized op index;
        // keep the remaining grid running to map the blast radius.
        continue;
      }
      combos += kEnginesPerTrace;
    }
  }
  // The tier-1 bar: at least 65 seeded trace/engine combinations must have
  // run clean in this suite.
  EXPECT_GE(combos, 65U) << "differential fuzz coverage dropped below the bar";
}

// Skewed regimes: heavy-tailed base graphs under the adversarial policies.
// Hub deletions, correlated neighborhood bursts and insert storms hit the
// engines' cascade paths much harder per op than the uniform mix, so a
// smaller grid still probes deep recovery chains.
struct SkewedRegime {
  const char* name;
  workload::ChurnPolicy policy;
  std::size_t ops;
};

const SkewedRegime kSkewedRegimes[] = {
    {"ba-hub-kill", workload::ChurnPolicy::kHubKill, 300},
    {"ba-burst-mute", workload::ChurnPolicy::kBurstMute, 300},
    {"ba-flash-crowd", workload::ChurnPolicy::kFlashCrowd, 300},
};
constexpr std::uint64_t kSeedsPerSkewedRegime = 2;

TEST(EngineFuzz, DifferentialUnderSkewedChurn) {
  unsigned combos = 0;
  for (const SkewedRegime& regime : kSkewedRegimes) {
    for (std::uint64_t s = 0; s < kSeedsPerSkewedRegime; ++s) {
      const std::uint64_t seed = s * 104729 + 31;
      util::Rng graph_rng(seed);
      const graph::DynamicGraph g0 = graph::barabasi_albert(100, 3, graph_rng);
      workload::SkewedChurnConfig config;
      config.policy = regime.policy;
      config.burst_cap = 12;
      config.storm_len = 24;
      workload::SkewedChurnGenerator gen(g0, config, seed + 99);
      if (!run_trace_case(regime.name, g0, gen, regime.ops, seed)) continue;
      combos += kEnginesPerTrace;
    }
  }
  EXPECT_GE(combos, 25U) << "skewed differential coverage dropped below the bar";
}

// Multi-op batches, the shape MisService applies: each case cuts one
// generator's stream into batches of 2-256 ops and applies each batch with
// one cascade, while a single-op twin takes the same ops one at a time. Two
// shapes a generator rarely emits on its own are mixed in, each net-zero so
// the generator's graph stays in step with the engines':
//   * an edge added and removed in the same batch (after every edge op,
//     with odds 1/3, the edge is toggled twice more);
//   * after a node removal, an edge toggled twice between two of its
//     former neighbors — the nodes the removal may free.
// After every batch the batched engine must equal the greedy oracle and
// the twin: same graph, same membership.
bool run_multi_op_case(const char* regime_name, const graph::DynamicGraph& g0,
                       workload::TraceGenerator& gen, std::size_t batches,
                       std::uint64_t seed) {
  using workload::GraphOp;
  using workload::OpKind;
  const std::uint64_t prio_seed = seed * 1000 + 17;
  core::CascadeEngine batched(g0, prio_seed);
  core::CascadeEngine single(g0, prio_seed);
  util::Rng rng(seed + 7);
  core::Batch batch;
  std::vector<NodeId> former;
  const auto push = [&](const GraphOp& op) {
    workload::append_op(batch, op);
    workload::apply(single, op);
  };
  const auto toggle_twice = [&](NodeId a, NodeId b) {
    if (single.graph().has_edge(a, b)) {
      push(GraphOp::remove_edge(a, b));
      push(GraphOp::add_edge(a, b));
    } else {
      push(GraphOp::add_edge(a, b));
      push(GraphOp::remove_edge(a, b));
    }
  };

  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t size = 2 + rng.below(255);
    batch.clear();
    while (batch.size() < size) {
      const GraphOp op = gen.next();
      const bool removes_node =
          op.kind == OpKind::kRemoveNodeGraceful || op.kind == OpKind::kRemoveNodeAbrupt;
      const bool edge_op = op.kind == OpKind::kAddEdge ||
                           op.kind == OpKind::kRemoveEdgeGraceful ||
                           op.kind == OpKind::kRemoveEdgeAbrupt;
      if (removes_node) {
        const auto nb = single.graph().neighbors(op.u);
        former.assign(nb.begin(), nb.end());
      }
      push(op);
      if (removes_node && former.size() >= 2) {
        const NodeId x = former[rng.below(former.size())];
        const NodeId y = former[rng.below(former.size())];
        if (x != y) toggle_twice(x, y);
      } else if (edge_op && rng.below(3) == 0) {
        toggle_twice(op.u, op.v);
      }
    }

    const core::BatchResult result = core::apply_batch(batched, batch);
    const core::Membership oracle = core::greedy_mis(batched.graph(), batched.priorities());
    bool ok = batched.graph() == single.graph() && batched.mis_size() == single.mis_size();
    NodeId bad = graph::kInvalidNode;
    batched.graph().for_each_node([&](NodeId v) {
      const bool want = oracle[v] != 0;
      if (bad == graph::kInvalidNode &&
          (batched.in_mis(v) != want || single.in_mis(v) != want))
        bad = v;
    });
    ok = ok && bad == graph::kInvalidNode;
    if (!ok) {
      ADD_FAILURE() << "multi-op divergence: regime=" << regime_name << " seed=" << seed
                    << " batch=" << b << " ops=" << batch.size()
                    << " graphs_equal=" << (batched.graph() == single.graph())
                    << " first_bad_node=" << bad
                    << " adjustments=" << result.report.adjustments;
      return false;
    }
  }
  batched.verify();
  single.verify();
  EXPECT_TRUE(batched.graph() == gen.graph());
  return true;
}

constexpr std::size_t kMultiOpBatches = 40;  // per case, 2-256 ops each

TEST(EngineFuzz, MultiOpBatchesMatchOracleAndSingleOpTwin) {
  unsigned clean = 0;
  unsigned cases = 0;
  for (const Regime& regime : kRegimes) {
    for (std::uint64_t s = 0; s < 2; ++s) {
      const std::uint64_t seed = s * 6151 + 29;
      util::Rng graph_rng(seed);
      const graph::DynamicGraph g0 =
          graph::random_avg_degree(regime.n, regime.deg, graph_rng);
      workload::ChurnGenerator gen(g0, regime.config, seed + 99);
      ++cases;
      clean += run_multi_op_case(regime.name, g0, gen, kMultiOpBatches, seed) ? 1 : 0;
    }
  }
  for (const SkewedRegime& regime : kSkewedRegimes) {
    for (std::uint64_t s = 0; s < 2; ++s) {
      const std::uint64_t seed = s * 104729 + 43;
      util::Rng graph_rng(seed);
      const graph::DynamicGraph g0 = graph::barabasi_albert(100, 3, graph_rng);
      workload::SkewedChurnConfig config;
      config.policy = regime.policy;
      config.burst_cap = 12;
      config.storm_len = 24;
      workload::SkewedChurnGenerator gen(g0, config, seed + 99);
      ++cases;
      clean += run_multi_op_case(regime.name, g0, gen, kMultiOpBatches, seed) ? 1 : 0;
    }
  }
  EXPECT_EQ(clean, cases);
  EXPECT_EQ(cases, 14U);
}

// The dump machinery itself is load-bearing test infrastructure, so it gets
// its own deterministic check: force a "divergence" at a known op index and
// assert the dumped TraceFile and snapshot replay to exactly the engine
// state the fuzzer would have been holding.
TEST(EngineFuzz, DivergenceDumpReplaysToPreFailureState) {
  util::Rng graph_rng(5);
  const graph::DynamicGraph g0 = graph::random_avg_degree(60, 4.0, graph_rng);
  workload::ChurnGenerator gen(g0, {}, 77);
  const workload::Trace ops = gen.generate(50);
  const std::uint64_t prio_seed = 4321;
  const std::size_t fail = 37;

  const std::string msg =
      dump_divergence("selftest", 5, prio_seed, g0, ops, fail);
  ASSERT_NE(msg.find("repro dumped"), std::string::npos) << msg;

  const std::string stem = dump_dir() + "/dmis_fuzz_selftest_s5";

  // The trace replays from empty to the failing op inclusive...
  workload::TraceFile tf;
  std::string error;
  ASSERT_TRUE(tf.open(stem + ".trc", &error)) << error;
  core::CascadeEngine replayed(prio_seed);
  tf.replay(replayed);
  // ...and the snapshot holds the state just before it.
  graph::Snapshot snap;
  ASSERT_TRUE(snap.open(stem + ".snap", &error)) << error;
  EXPECT_TRUE(snap.verify(&error)) << error;
  core::CascadeEngine pre(graph::DynamicGraph::load(snap), snap, snap.priority_seed(),
                          graph::SnapshotLoad::kWarm);
  workload::apply(pre, ops[fail]);
  EXPECT_EQ(pre.membership(), replayed.membership());
  EXPECT_EQ(pre.mis_size(), replayed.mis_size());
  EXPECT_TRUE(pre.graph() == replayed.graph());

  std::filesystem::remove(stem + ".trc");
  std::filesystem::remove(stem + ".snap");
}

}  // namespace
