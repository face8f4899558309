// bench_recovery — measures what the crash-safe service actually charges
// for durability, and what checkpoint cadence buys back at recovery time.
//
// One cell per checkpoint interval (same workload, same n): ingest a
// deterministic churn stream through MisService with the given
// checkpoint_interval_ops and the serving fsync policy (every batch), then
// drop the service WITHOUT close() — the directory is left crash-shaped,
// unsealed WAL tail and all — and time RecoveryManager::recover over it
// --reps times (min reported, with the open/warm/replay breakdown of the
// fastest rep). Reported per cell:
//
//   ingest_ops_per_sec   ingest throughput including WAL append + fsync per
//                        batch + auto checkpoints — the durability tax on
//                        the engine's raw update rate,
//   wal_bytes / checkpoint_bytes / wal_amplification
//                        bytes the filesystem saw vs. the logical op payload
//                        (20 B/op + 4 B/neighbor slot): the write
//                        amplification of framing + checkpoints,
//   tail_ops             ops past the last checkpoint — what recovery must
//                        replay; bounded by interval + batch slack (the gate
//                        checks this intrinsically),
//   rto_s = open_s + load_s + warm_s + replay_s
//                        time from "directory on disk" to "engine serving":
//                        checkpoint open+verify, graph borrow (or
//                        materialized load with --no-borrow), warm start,
//                        WAL tail replay. Shrinking the interval shrinks
//                        tail_ops and
//                        with it the replay term — the recorded baseline
//                        demonstrates exactly that trade, and
//                        scripts/check_bench.py gates it.
//
// Every recovered engine is compared against the live pre-drop engine
// (core::state_diff: graph, priority keys, membership, RNG state) outside
// the timed region, so a cell that exists has been correctness-checked.
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
#include "service/recovery.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "workload/batched.hpp"

namespace {

using namespace dmis;
using graph::NodeId;
using Clock = std::chrono::steady_clock;

struct Result {
  std::uint64_t interval = 0;  // checkpoint_interval_ops; 0 = never
  NodeId n = 0;
  std::uint64_t ops = 0;
  double ingest_s = 0;
  double ingest_ops_per_sec = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t payload_bytes = 0;  // logical op payload (20 B/op + arena)
  double wal_amplification = 0;     // wal_bytes / payload_bytes
  std::uint64_t tail_ops = 0;       // replayed on recovery
  double rto_s = 0;                 // min over reps; breakdown from that rep
  double open_s = 0;
  double load_s = 0;
  double warm_s = 0;
  double replay_s = 0;
  bool borrowed = false;
};

/// Logical bytes of the op stream as the WAL defines payload: one 20-byte
/// op record per op plus 4 bytes per add-node neighbor slot. Framing
/// (headers, seals, padding) and checkpoints are amplification on top.
std::uint64_t payload_bytes(const std::vector<core::Batch>& stream) {
  std::uint64_t bytes = 0;
  for (const core::Batch& b : stream) {
    bytes += b.size() * 20ULL;
    for (const core::BatchOp& op : b.ops())
      if (op.kind == core::BatchOp::Kind::kAddNode)
        bytes += b.neighbors_of(op).size() * 4ULL;
  }
  return bytes;
}

Result run_cell(const std::vector<core::Batch>& stream, std::uint64_t interval,
                NodeId n, std::uint64_t seed, int reps, bool borrow,
                const std::filesystem::path& dir) {
  Result r;
  r.interval = interval;
  r.n = n;
  for (const auto& b : stream) r.ops += b.size();
  r.payload_bytes = payload_bytes(stream);

  const std::string cell_dir =
      (dir / ("bench_recovery_" + std::to_string(interval))).string();
  std::filesystem::remove_all(cell_dir);

  service::ServiceConfig config;
  config.dir = cell_dir;
  config.priority_seed = seed;
  config.fsync = service::FsyncPolicy::kEveryBatch;
  config.checkpoint_interval_ops = interval;
  std::string error;
  auto svc = service::MisService::open(config, &error);
  if (!svc.has_value()) {
    std::fprintf(stderr, "service open failed: %s\n", error.c_str());
    std::exit(1);
  }

  const auto t0 = Clock::now();
  for (const core::Batch& batch : stream) {
    if (!svc->apply(batch, &error)) {
      std::fprintf(stderr, "apply failed: %s\n", error.c_str());
      std::exit(1);
    }
  }
  r.ingest_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.ingest_ops_per_sec = r.ingest_s > 0 ? static_cast<double>(r.ops) / r.ingest_s : 0;
  r.wal_bytes = svc->wal_bytes_appended();
  r.checkpoint_bytes = svc->checkpoint_bytes();
  r.checkpoints = svc->checkpoints_taken();
  r.wal_amplification =
      r.payload_bytes > 0 ? static_cast<double>(r.wal_bytes) / r.payload_bytes : 0;
  r.tail_ops = r.ops - svc->last_checkpoint_lsn();

  // Keep the live end state for the correctness pin, then drop the service
  // without close(): no seal, no final sync beyond the policy's — the
  // directory now looks exactly like the process was shot post-ack.
  const core::CascadeEngine want = svc->engine();
  svc.reset();

  std::size_t sink = 0;
  for (int rep = 0; rep < reps; ++rep) {
    service::RecoveryOptions options;
    options.priority_seed = seed;
    options.borrow = borrow;
    service::RecoveryManager manager(cell_dir, options);
    service::RecoveryReport report;
    const auto t_rec = Clock::now();
    auto engine = manager.recover(&report, &error);
    const double rto = std::chrono::duration<double>(Clock::now() - t_rec).count();
    if (!engine.has_value()) {
      std::fprintf(stderr, "recovery failed: %s\n", error.c_str());
      std::exit(1);
    }
    sink += engine->mis_size();
    if (report.recovered_lsn != r.ops || report.replayed_ops != r.tail_ops) {
      std::fprintf(stderr,
                   "recovery bookkeeping mismatch at interval %llu: lsn %llu/%llu, "
                   "tail %llu/%llu\n",
                   static_cast<unsigned long long>(interval),
                   static_cast<unsigned long long>(report.recovered_lsn),
                   static_cast<unsigned long long>(r.ops),
                   static_cast<unsigned long long>(report.replayed_ops),
                   static_cast<unsigned long long>(r.tail_ops));
      std::exit(1);
    }
    // Correctness pin outside the timed region: the recovered engine must
    // be differentially identical to the live one that wrote the log.
    if (const std::string diff = core::state_diff(*engine, want); !diff.empty()) {
      std::fprintf(stderr, "recovered state mismatch at interval %llu: %s\n",
                   static_cast<unsigned long long>(interval), diff.c_str());
      std::exit(1);
    }
    if (rep == 0 || rto < r.rto_s) {
      r.rto_s = rto;
      r.open_s = report.open_s;
      r.load_s = report.load_s;
      r.warm_s = report.warm_s;
      r.replay_s = report.replay_s;
      r.borrowed = report.borrowed;
    }
  }
  if (sink == 0) std::fprintf(stderr, "(empty MIS — suspicious)\n");
  std::filesystem::remove_all(cell_dir);
  return r;
}

bool write_json(const std::string& path, const std::vector<Result>& results, NodeId n,
                double deg, std::uint64_t seed, std::uint64_t ops,
                std::size_t ops_per_batch, int reps, bool borrow) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"recovery\",\n");
  std::fprintf(f,
               "  \"config\": {\"n\": %u, \"deg\": %.1f, \"seed\": %llu, "
               "\"ops\": %llu, \"batch\": %zu, \"reps\": %d, \"fsync\": \"everybatch\", "
               "\"borrow\": %s},\n",
               n, deg, static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(ops), ops_per_batch, reps,
               borrow ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"interval\": %llu, \"n\": %u, \"ops\": %llu, "
                 "\"ingest_s\": %.6f, \"ingest_ops_per_sec\": %.0f, "
                 "\"wal_bytes\": %llu, \"checkpoint_bytes\": %llu, "
                 "\"checkpoints\": %llu, \"payload_bytes\": %llu, "
                 "\"wal_amplification\": %.4f, \"tail_ops\": %llu, "
                 "\"rto_s\": %.6f, \"open_s\": %.6f, \"load_s\": %.6f, "
                 "\"warm_s\": %.6f, \"replay_s\": %.6f, \"borrowed\": %s}%s\n",
                 static_cast<unsigned long long>(r.interval), r.n,
                 static_cast<unsigned long long>(r.ops), r.ingest_s,
                 r.ingest_ops_per_sec, static_cast<unsigned long long>(r.wal_bytes),
                 static_cast<unsigned long long>(r.checkpoint_bytes),
                 static_cast<unsigned long long>(r.checkpoints),
                 static_cast<unsigned long long>(r.payload_bytes),
                 r.wal_amplification, static_cast<unsigned long long>(r.tail_ops),
                 r.rto_s, r.open_s, r.load_s, r.warm_s, r.replay_s,
                 r.borrowed ? "true" : "false", i + 1 < results.size() ? "," : "");
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
      static_cast<std::uint64_t>(cli.flag_int("ops", 120'000, "workload ops"));
  auto batch = static_cast<std::size_t>(cli.flag_int("batch", 32, "ops per batch"));
  const int reps = static_cast<int>(cli.flag_int("reps", 3, "recoveries per cell"));
  const auto intervals = cli.flag_int_list(
      "intervals", "0,50000,10000,2000", 0,
      "checkpoint intervals in ops, comma-separated (0 = never checkpoint)");
  const auto out =
      cli.flag_string("out", "BENCH_recovery.json", "machine-readable output path");
  const auto dir = cli.flag_string("dir", std::filesystem::temp_directory_path().string(),
                                   "scratch directory for the service directories");
  const bool borrow = !cli.flag_bool("no-borrow", false,
                                     "recover with a materialized load, not a borrow");
  cli.finish();
  if (batch == 0) batch = 1;

  const auto stream = workload::drill_stream(n, deg, seed, ops, batch);

  std::vector<Result> results;
  for (const std::int64_t interval : intervals) {
    const Result r = run_cell(stream, static_cast<std::uint64_t>(interval), n, seed, reps,
                              borrow, dir);
    results.push_back(r);
    std::printf("interval=%-8llu ingest=%8.0f ops/s  wal=%-9llu ckpt=%llux%-8llu "
                "amp=%.2fx  tail=%-7llu rto=%.6fs (open %.6f + %s %.6f + warm %.6f "
                "+ replay %.6f)\n",
                static_cast<unsigned long long>(r.interval), r.ingest_ops_per_sec,
                static_cast<unsigned long long>(r.wal_bytes),
                static_cast<unsigned long long>(r.checkpoints),
                static_cast<unsigned long long>(
                    r.checkpoints > 0 ? r.checkpoint_bytes / r.checkpoints : 0),
                r.wal_amplification, static_cast<unsigned long long>(r.tail_ops),
                r.rto_s, r.open_s, r.borrowed ? "borrow" : "load", r.load_s, r.warm_s,
                r.replay_s);
    std::fflush(stdout);
  }
  return write_json(out, results, n, deg, seed, ops, batch, reps, borrow) ? 0 : 1;
}
