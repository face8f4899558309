// bench_replication — what log shipping costs while the leader serves, and
// what failover costs when it dies.
//
// One cell per fsync policy (same workload, same n): ingest a deterministic
// churn stream through a leader MisService while a LogShipper (loss-free
// in-process transport, durable cursor attached) pumps every batch into a
// FollowerService that tail-applies. After the stream, the leader is
// dropped WITHOUT close() — crash-shaped directory — and the follower
// drains the dead leader's disk and is promoted. Reported per cell:
//
//   ingest_ops_per_sec    leader throughput with shipping interleaved — the
//                         replication tax on the serving path,
//   mean_lag_ops / max_lag_ops
//                         replication lag sampled after every batch
//                         (leader lsn − follower applied lsn). The durable
//                         cursor makes this the fsync policy's visible
//                         footprint: everyop/everybatch pin it at 0, the
//                         interval policy trades lag for throughput.
//                         Deterministic in ops — gated bit-identical.
//   shipped_bytes / shipments / wal_bytes
//                         wire cost of replication vs. the log it carries
//                         (deterministic; gated bit-identical),
//   catchup_s             final drain of the dead leader's directory —
//                         what remained unshipped at the moment of death,
//   failover_rto_s        FollowerService::promote — final poll + WAL
//                         re-base; O(state handoff), independent of history.
//
// The promoted engine is compared against a never-crashed reference fed the
// same stream (core::state_diff: graph, priority keys, membership, RNG
// state) outside the timed region, so every cell that exists has survived
// the failover differential check.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/identity.hpp"
#include "service/replication.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "workload/batched.hpp"

namespace {

using namespace dmis;
using graph::NodeId;
using Clock = std::chrono::steady_clock;

struct Result {
  std::string policy;
  NodeId n = 0;
  std::uint64_t ops = 0;
  double ingest_s = 0;
  double ingest_ops_per_sec = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t shipped_bytes = 0;
  std::uint64_t shipments = 0;
  std::uint64_t applied_ops = 0;   // follower ops applied end to end
  double mean_lag_ops = 0;         // deterministic in ops
  std::uint64_t max_lag_ops = 0;   // deterministic in ops
  double catchup_s = 0;            // min over reps
  double failover_rto_s = 0;       // min over reps
  std::uint64_t promoted_lsn = 0;
};

Result run_rep(const std::vector<core::Batch>& stream, const std::string& policy,
               NodeId n, std::uint64_t seed, const std::filesystem::path& dir,
               const core::CascadeEngine& want) {
  Result r;
  r.policy = policy;
  r.n = n;
  for (const auto& b : stream) r.ops += b.size();

  const std::string leader_dir = (dir / ("bench_repl_leader_" + policy)).string();
  const std::string follower_dir = (dir / ("bench_repl_follower_" + policy)).string();
  std::filesystem::remove_all(leader_dir);
  std::filesystem::remove_all(follower_dir);

  service::ServiceConfig config;
  config.dir = leader_dir;
  config.priority_seed = seed;
  if (!service::parse_fsync_policy(policy, config.fsync)) {
    std::fprintf(stderr, "unknown policy %s\n", policy.c_str());
    std::exit(1);
  }
  std::string error;
  auto leader = service::MisService::open(config, &error);
  if (!leader.has_value()) {
    std::fprintf(stderr, "leader open failed: %s\n", error.c_str());
    std::exit(1);
  }
  service::FollowerOptions follower_options;
  follower_options.priority_seed = seed;
  auto follower =
      service::FollowerService::open(follower_dir, follower_options, &error);
  if (!follower.has_value()) {
    std::fprintf(stderr, "follower open failed: %s\n", error.c_str());
    std::exit(1);
  }
  service::DirectTransport transport(&*follower);
  service::LogShipper shipper(leader_dir, &transport);
  shipper.attach_durable_cursor(&*leader);

  // Ingest with shipping interleaved: one drain-to-idle + poll per batch.
  std::uint64_t lag_sum = 0;
  const auto t0 = Clock::now();
  for (const core::Batch& batch : stream) {
    if (!leader->apply(batch, &error) || !shipper.drain(&error) ||
        !follower->poll(&error)) {
      std::fprintf(stderr, "replicated ingest failed: %s\n", error.c_str());
      std::exit(1);
    }
    const std::uint64_t lag = leader->lsn() - follower->applied_lsn();
    lag_sum += lag;
    if (lag > r.max_lag_ops) r.max_lag_ops = lag;
  }
  r.ingest_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.ingest_ops_per_sec = r.ingest_s > 0 ? static_cast<double>(r.ops) / r.ingest_s : 0;
  r.mean_lag_ops = static_cast<double>(lag_sum) / static_cast<double>(stream.size());
  r.wal_bytes = leader->wal_bytes_appended();

  // The leader dies mid-service: no close(), no seal. Its directory is the
  // recovery truth; ship whatever it holds, then promote.
  leader.reset();
  shipper.detach_durable_cursor();
  const auto t_catchup = Clock::now();
  if (!shipper.drain(&error) || !follower->poll(&error)) {
    std::fprintf(stderr, "post-crash catch-up failed: %s\n", error.c_str());
    std::exit(1);
  }
  r.catchup_s = std::chrono::duration<double>(Clock::now() - t_catchup).count();
  r.shipped_bytes = shipper.stats().bytes_shipped;
  r.shipments = shipper.stats().shipments;
  r.applied_ops = follower->stats().ops_applied;

  service::ServiceConfig promoted_config;
  promoted_config.dir = follower_dir;
  promoted_config.priority_seed = seed;
  const auto t_promote = Clock::now();
  auto promoted = follower->promote(promoted_config, &error);
  r.failover_rto_s = std::chrono::duration<double>(Clock::now() - t_promote).count();
  if (!promoted.has_value()) {
    std::fprintf(stderr, "promote failed: %s\n", error.c_str());
    std::exit(1);
  }
  r.promoted_lsn = promoted->lsn();

  // Differential pin outside the timed region: the promoted service must be
  // the never-crashed leader, exactly.
  const std::string diff = core::state_diff(promoted->engine(), want);
  if (r.promoted_lsn != r.ops || !diff.empty()) {
    std::fprintf(stderr, "promoted state mismatch for policy %s (lsn %llu/%llu) %s\n",
                 policy.c_str(), static_cast<unsigned long long>(r.promoted_lsn),
                 static_cast<unsigned long long>(r.ops), diff.c_str());
    std::exit(1);
  }
  std::filesystem::remove_all(leader_dir);
  std::filesystem::remove_all(follower_dir);
  return r;
}

Result run_cell(const std::vector<core::Batch>& stream, const std::string& policy,
                NodeId n, std::uint64_t seed, int reps,
                const std::filesystem::path& dir,
                const core::CascadeEngine& want) {
  Result best;
  for (int rep = 0; rep < reps; ++rep) {
    Result r = run_rep(stream, policy, n, seed, dir, want);
    if (rep == 0) {
      best = r;
      continue;
    }
    // Deterministic fields must be identical across reps — a drift here is
    // a replication bug, not noise.
    if (r.wal_bytes != best.wal_bytes || r.shipped_bytes != best.shipped_bytes ||
        r.shipments != best.shipments || r.applied_ops != best.applied_ops ||
        r.max_lag_ops != best.max_lag_ops || r.mean_lag_ops != best.mean_lag_ops) {
      std::fprintf(stderr, "nondeterministic replication counts for policy %s\n",
                   policy.c_str());
      std::exit(1);
    }
    if (r.ingest_ops_per_sec > best.ingest_ops_per_sec) {
      best.ingest_ops_per_sec = r.ingest_ops_per_sec;
      best.ingest_s = r.ingest_s;
    }
    if (r.catchup_s < best.catchup_s) best.catchup_s = r.catchup_s;
    if (r.failover_rto_s < best.failover_rto_s) best.failover_rto_s = r.failover_rto_s;
  }
  return best;
}

bool write_json(const std::string& path, const std::vector<Result>& results, NodeId n,
                double deg, std::uint64_t seed, std::uint64_t ops,
                std::size_t ops_per_batch, int reps) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"replication\",\n");
  std::fprintf(f,
               "  \"config\": {\"n\": %u, \"deg\": %.1f, \"seed\": %llu, "
               "\"ops\": %llu, \"batch\": %zu, \"reps\": %d},\n",
               n, deg, static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(ops), ops_per_batch, reps);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"policy\": \"%s\", \"n\": %u, \"ops\": %llu, "
                 "\"ingest_s\": %.6f, \"ingest_ops_per_sec\": %.0f, "
                 "\"wal_bytes\": %llu, \"shipped_bytes\": %llu, "
                 "\"shipments\": %llu, \"applied_ops\": %llu, "
                 "\"mean_lag_ops\": %.4f, \"max_lag_ops\": %llu, "
                 "\"catchup_s\": %.6f, \"failover_rto_s\": %.6f, "
                 "\"promoted_lsn\": %llu}%s\n",
                 r.policy.c_str(), r.n, static_cast<unsigned long long>(r.ops),
                 r.ingest_s, r.ingest_ops_per_sec,
                 static_cast<unsigned long long>(r.wal_bytes),
                 static_cast<unsigned long long>(r.shipped_bytes),
                 static_cast<unsigned long long>(r.shipments),
                 static_cast<unsigned long long>(r.applied_ops), r.mean_lag_ops,
                 static_cast<unsigned long long>(r.max_lag_ops), r.catchup_s,
                 r.failover_rto_s, static_cast<unsigned long long>(r.promoted_lsn),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto n = static_cast<NodeId>(cli.flag_int("n", 1000, "base graph nodes"));
  const double deg = cli.flag_double("deg", 6.0, "average degree of the base graph");
  const auto seed =
      static_cast<std::uint64_t>(cli.flag_int("seed", 42, "workload and priority seed"));
  const auto ops =
      static_cast<std::uint64_t>(cli.flag_int("ops", 60'000, "workload ops"));
  auto batch = static_cast<std::size_t>(cli.flag_int("batch", 32, "ops per batch"));
  const int reps = static_cast<int>(cli.flag_int("reps", 3, "runs per policy"));
  const auto policies = cli.flag_list("policies", "everyop,everybatch,interval",
                                      "fsync policies, comma-separated");
  const auto out =
      cli.flag_string("out", "BENCH_replication.json", "machine-readable output path");
  const auto dir = cli.flag_string("dir", std::filesystem::temp_directory_path().string(),
                                   "scratch directory for leader and follower");
  cli.finish();
  if (batch == 0) batch = 1;

  const auto stream = workload::drill_stream(n, deg, seed, ops, batch);
  // The never-crashed reference every promoted follower is pinned against.
  core::CascadeEngine want(seed);
  for (const core::Batch& b : stream) (void)core::apply_batch(want, b);

  std::vector<Result> results;
  for (const std::string& policy : policies) {
    const Result r = run_cell(stream, policy, n, seed, reps, dir, want);
    results.push_back(r);
    std::printf("policy=%-10s ingest=%8.0f ops/s  wal=%-9llu shipped=%-9llu "
                "(%llu shipments)  lag mean=%.1f max=%-5llu catchup=%.6fs "
                "rto=%.6fs\n",
                r.policy.c_str(), r.ingest_ops_per_sec,
                static_cast<unsigned long long>(r.wal_bytes),
                static_cast<unsigned long long>(r.shipped_bytes),
                static_cast<unsigned long long>(r.shipments), r.mean_lag_ops,
                static_cast<unsigned long long>(r.max_lag_ops), r.catchup_s,
                r.failover_rto_s);
    std::fflush(stdout);
  }
  return write_json(out, results, n, deg, seed, ops, batch, reps) ? 0 : 1;
}
