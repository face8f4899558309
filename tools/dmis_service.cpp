// dmis_service — operator CLI for the crash-safe dynamic-MIS service
// (service/service.hpp): run a churn workload through a service directory,
// crash it on purpose, recover it, and check the recovered state.
//
//   dmis_service run     --dir d [--ops K --batch B --seed S]
//                        [--policy everyop|everybatch|interval]
//                        [--checkpoint-interval N] [--crash-at L]
//                        ingest the deterministic workload from the lsn the
//                        directory holds (even inside a batch); with --crash-at
//                        the process _exit()s the moment lsn ≥ L — no
//                        close(), no seal, exactly the on-disk shape a
//                        kill -9 leaves (modulo a mid-write tear).
//   dmis_service recover --dir d [--verify --ops K --batch B --seed S]
//                        recover the directory, print the recovery report
//                        and RTO breakdown; with --verify, regenerate the
//                        same workload and check the recovered engine is
//                        differentially identical to a never-crashed
//                        reference at the recovered lsn (core/identity.hpp:
//                        graph, priority keys, membership, MIS size,
//                        priority-RNG state).
//   dmis_service serve   --dir d [--producers P --ops K --batch B --seed S]
//                        [--policy ...] [--crash-at L]
//                        concurrent ingest: P producer threads submit edge
//                        toggles through IngestQueue, the consumer thread
//                        admission-batches them into the service. Each
//                        producer owns a hash partition of the edge space,
//                        so any admission interleaving is a valid op
//                        stream; the WAL records the one the consumer
//                        chose. The printed fingerprint therefore must
//                        equal a later `recover`'s — that pair is the
//                        concurrent-ingest differential check.
//   dmis_service follow  --dir f --leader-dir d [--until-lsn L]
//                        [--drop/--dup/--reorder/--trunc p --fault-seed S]
//                        ship the leader directory into follower dir f
//                        (optionally through a seeded faulty transport)
//                        and tail-apply until caught up (or --until-lsn).
//   dmis_service promote --dir f [--verify --ops K --batch B --seed S]
//                        promote follower dir f to a serving leader
//                        (fresh WAL segment based at the applied lsn),
//                        print the RTO; --verify checks the promoted
//                        engine against the regenerated workload prefix.
//   dmis_service stats   --dir d [--json]
//                        list checkpoints (with resident vs mapped bytes from
//                        a shallow zero-copy open) and WAL segments with lsn
//                        ranges, plus the open mode recovery will use
//                        (borrowed vs materialized).
//
// The workload is pinned by (--seed, --ops, --batch): workload::drill_stream,
// the recipe the service and kill -9 tests use, so `run --crash-at` +
// `recover --verify` is a self-contained crash drill, and `run --crash-at` +
// `follow` + `promote --verify` is a self-contained failover drill.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/identity.hpp"
#include "graph/snapshot.hpp"
#include "service/checkpoint.hpp"
#include "service/ingest.hpp"
#include "service/replication.hpp"
#include "service/service.hpp"
#include "service/wal.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"

namespace {

using namespace dmis;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The pinned workload (workload::drill_stream at n = 100) and the engine
/// seed: run ingests it, and recover and promote regenerate it for --verify.
struct Workload {
  std::size_t ops = 0;
  std::size_t batch = 0;
  std::uint64_t seed = 0;
  std::uint64_t priority_seed = 0;

  [[nodiscard]] std::vector<core::Batch> stream() const {
    return workload::drill_stream(100, 6.0, seed, ops, batch);
  }
};

Workload workload_flags(util::Cli& cli) {
  Workload w;
  w.ops = static_cast<std::size_t>(
      cli.flag_int("ops", 5000, "workload ops (--verify: as given to run)"));
  w.batch = static_cast<std::size_t>(std::max<std::int64_t>(
      1, cli.flag_int("batch", 8, "ops per batch (--verify: as given to run)")));
  w.seed = static_cast<std::uint64_t>(
      cli.flag_int("seed", 42, "workload seed (--verify: as given to run)"));
  w.priority_seed =
      static_cast<std::uint64_t>(cli.flag_int("priority-seed", 7, "engine seed"));
  return w;
}

/// --verify: `engine`, at `lsn`, must have the identity of a never-crashed
/// engine fed the first `lsn` ops of the workload.
bool verify_against_workload(const core::CascadeEngine& engine, std::uint64_t lsn,
                             const char* what, const Workload& w) {
  const auto stream = w.stream();
  std::uint64_t total = 0;
  for (const auto& b : stream) total += b.size();
  if (lsn > total) {
    std::fprintf(stderr, "FAIL: %s lsn %llu beyond the %llu-op workload "
                         "(wrong --ops/--seed?)\n",
                 what, static_cast<unsigned long long>(lsn),
                 static_cast<unsigned long long>(total));
    return false;
  }
  core::CascadeEngine ref(w.priority_seed);
  for (const core::Batch& b : workload::slice(stream, 0, lsn))
    (void)core::apply_batch(ref, b);
  if (const std::string diff = core::state_diff(engine, ref); !diff.empty()) {
    std::fprintf(stderr, "FAIL: %s state diverges from the reference at lsn %llu: %s\n",
                 what, static_cast<unsigned long long>(lsn), diff.c_str());
    return false;
  }
  engine.verify();
  std::printf("OK: %s engine is differentially identical to the reference at lsn "
              "%llu (graph, keys, membership, |MIS| %zu, rng)\n",
              what, static_cast<unsigned long long>(lsn), engine.mis_size());
  return true;
}

/// --crash-at: print the fingerprint and die with the kill -9 exit code —
/// no destructors, no close, no seal, no thread joins.
[[noreturn]] void crash(std::uint64_t crash_at, const service::MisService& svc) {
  std::printf("crash-at %llu reached at lsn %llu — dying without close "
              "(fingerprint %016llx)\n",
              static_cast<unsigned long long>(crash_at),
              static_cast<unsigned long long>(svc.lsn()),
              static_cast<unsigned long long>(core::fingerprint(svc.engine())));
  std::fflush(stdout);
#if defined(__unix__) || defined(__APPLE__)
  _exit(137);
#else
  std::abort();
#endif
}

/// Close `svc`; returns the subcommand's exit status.
int close_service(service::MisService& svc) {
  std::string error;
  if (svc.close(&error)) return 0;
  std::fprintf(stderr, "error: close: %s\n", error.c_str());
  return 1;
}

int cmd_run(util::Cli& cli) {
  const auto dir = cli.flag_string("dir", "mis-service", "service directory");
  const Workload w = workload_flags(cli);
  const auto policy_name =
      cli.flag_string("policy", "everybatch", "fsync policy: everyop|everybatch|interval");
  const auto checkpoint_interval = static_cast<std::uint64_t>(
      cli.flag_int("checkpoint-interval", 0, "auto-checkpoint every N ops (0 = never)"));
  const auto crash_at = static_cast<std::uint64_t>(
      cli.flag_int("crash-at", 0, "simulate kill -9 once lsn reaches this (0 = run out)"));
  cli.finish();

  service::ServiceConfig config;
  config.dir = dir;
  config.priority_seed = w.priority_seed;
  config.checkpoint_interval_ops = checkpoint_interval;
  if (!service::parse_fsync_policy(policy_name, config.fsync)) {
    std::fprintf(stderr, "error: unknown --policy '%s'\n", policy_name.c_str());
    return 1;
  }
  std::string error;
  auto svc = service::MisService::open(config, &error);
  if (!svc.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (svc->lsn() != 0)
    std::printf("resumed at lsn %llu (checkpoint %llu, %llu ops replayed)\n",
                static_cast<unsigned long long>(svc->lsn()),
                static_cast<unsigned long long>(svc->recovery().checkpoint_lsn),
                static_cast<unsigned long long>(svc->recovery().replayed_ops));

  // Idempotent restart: apply only what the directory does not hold yet,
  // which may start inside a batch (kEveryOp logs every op on its own).
  const auto rest = workload::slice(w.stream(), svc->lsn());
  const auto t0 = Clock::now();
  for (const core::Batch& batch : rest) {
    if (!svc->apply(batch, &error)) {
      std::fprintf(stderr, "error: apply at lsn %llu: %s\n",
                   static_cast<unsigned long long>(svc->lsn()), error.c_str());
      return 1;
    }
    if (crash_at != 0 && svc->lsn() >= crash_at) crash(crash_at, *svc);
  }
  const double run_s = seconds_since(t0);
  const std::uint64_t lsn = svc->lsn();
  std::printf("ingested to lsn %llu in %.3fs (%.0f ops/s), |MIS| %zu, "
              "wal %llu bytes, %llu checkpoints (%llu bytes), fingerprint %016llx\n",
              static_cast<unsigned long long>(lsn), run_s,
              run_s > 0 ? static_cast<double>(lsn) / run_s : 0.0,
              svc->engine().mis_size(),
              static_cast<unsigned long long>(svc->wal_bytes_appended()),
              static_cast<unsigned long long>(svc->checkpoints_taken()),
              static_cast<unsigned long long>(svc->checkpoint_bytes()),
              static_cast<unsigned long long>(core::fingerprint(svc->engine())));
  return close_service(*svc);
}

int cmd_recover(util::Cli& cli) {
  const auto dir = cli.flag_string("dir", "mis-service", "service directory");
  const bool verify = cli.flag_bool(
      "verify", false, "check the recovered engine against the regenerated workload");
  const Workload w = workload_flags(cli);
  cli.finish();

  service::ServiceConfig config;
  config.dir = dir;
  config.priority_seed = w.priority_seed;
  const auto t0 = Clock::now();
  std::string error;
  auto svc = service::MisService::open(config, &error);
  if (!svc.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  const double rto_s = seconds_since(t0);
  const service::RecoveryReport& r = svc->recovery();
  std::printf("recovered to lsn %llu: checkpoint %llu (%s), %llu records / %llu ops "
              "replayed, %llu segments%s\n",
              static_cast<unsigned long long>(r.recovered_lsn),
              static_cast<unsigned long long>(r.checkpoint_lsn),
              r.checkpoint_path.empty() ? "none" : r.checkpoint_path.c_str(),
              static_cast<unsigned long long>(r.records_replayed),
              static_cast<unsigned long long>(r.replayed_ops),
              static_cast<unsigned long long>(r.segments_scanned),
              r.torn_tail ? ", torn tail shed" : "");
  std::printf("rto %.6fs = open %.6fs + %s %.6fs + warm %.6fs + replay %.6fs "
              "(+ wal writer)\n",
              rto_s, r.open_s, r.borrowed ? "borrow" : "load", r.load_s,
              r.warm_s, r.replay_s);
  if (!r.detail.empty()) std::printf("detail:\n%s", r.detail.c_str());
  std::printf("|MIS| %zu, fingerprint %016llx\n", svc->engine().mis_size(),
              static_cast<unsigned long long>(core::fingerprint(svc->engine())));

  if (verify && !verify_against_workload(svc->engine(), r.recovered_lsn, "recovered", w))
    return 1;
  return close_service(*svc);
}

/// Concurrent ingest: P producers toggle edges in their own hash partition
/// of the pairs over [0, nodes); the consumer (this thread) drains, applies,
/// acks. Partitioned ownership + per-lane FIFO makes every admission
/// interleaving a valid stream, so the WAL'd serialization is self-
/// consistent — recover must reproduce the printed fingerprint exactly.
int cmd_serve(util::Cli& cli) {
  const auto dir = cli.flag_string("dir", "mis-service", "service directory");
  const auto producers = static_cast<unsigned>(
      cli.flag_int("producers", 4, "producer threads (ingest lanes)"));
  const auto ops =
      static_cast<std::uint64_t>(cli.flag_int("ops", 20000, "total client ops"));
  const auto batch_ops = static_cast<std::size_t>(
      cli.flag_int("batch", 64, "max ops per admission batch"));
  const auto nodes =
      static_cast<std::uint64_t>(cli.flag_int("nodes", 100, "base node count"));
  const auto seed =
      static_cast<std::uint64_t>(cli.flag_int("seed", 42, "workload seed"));
  const auto priority_seed =
      static_cast<std::uint64_t>(cli.flag_int("priority-seed", 7, "engine seed"));
  const auto policy_name =
      cli.flag_string("policy", "everybatch", "fsync policy: everyop|everybatch|interval");
  const auto checkpoint_interval = static_cast<std::uint64_t>(
      cli.flag_int("checkpoint-interval", 0, "auto-checkpoint every N ops (0 = never)"));
  const auto crash_at = static_cast<std::uint64_t>(
      cli.flag_int("crash-at", 0, "simulate kill -9 once lsn reaches this (0 = run out)"));
  cli.finish();

  if (producers == 0 || nodes < 2) {
    std::fprintf(stderr, "error: need --producers >= 1 and --nodes >= 2\n");
    return 1;
  }
  service::ServiceConfig config;
  config.dir = dir;
  config.priority_seed = priority_seed;
  config.checkpoint_interval_ops = checkpoint_interval;
  if (!service::parse_fsync_policy(policy_name, config.fsync)) {
    std::fprintf(stderr, "error: unknown --policy '%s'\n", policy_name.c_str());
    return 1;
  }
  std::string error;
  auto svc = service::MisService::open(config, &error);
  if (!svc.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (svc->lsn() != 0) {
    std::fprintf(stderr, "error: serve needs a fresh directory (lsn %llu != 0); "
                         "producers assume every owned edge starts absent\n",
                 static_cast<unsigned long long>(svc->lsn()));
    return 1;
  }

  // Seed the base nodes up front, before any concurrency.
  {
    core::Batch base;
    for (std::uint64_t i = 0; i < nodes; ++i)
      base.add_node(std::span<const graph::NodeId>{});
    if (!svc->apply(base, &error)) {
      std::fprintf(stderr, "error: seeding base nodes: %s\n", error.c_str());
      return 1;
    }
  }

  service::IngestOptions ingest_options;
  ingest_options.producers = producers;
  ingest_options.max_batch_ops = batch_ops;
  service::IngestQueue queue(ingest_options);
  const std::uint64_t per_producer = ops / producers;

  // (u, v) with u < v belongs to exactly one producer.
  const auto owner = [&](std::uint64_t u, std::uint64_t v) {
    return static_cast<unsigned>((u * 2654435761ULL + v * 40503ULL) % producers);
  };

  std::atomic<unsigned> producers_running{producers};
  std::vector<std::thread> lanes;
  lanes.reserve(producers);
  for (unsigned p = 0; p < producers; ++p) {
    lanes.emplace_back([&, p] {
      util::Rng rng(seed * 9176 + p);
      // Local view of the producer's own edges; nobody else touches them,
      // so validity (add absent / remove present) holds under any
      // cross-lane interleaving the consumer picks.
      std::vector<bool> present(nodes * nodes, false);
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        std::uint64_t u, v;
        do {
          u = rng.below(nodes);
          v = rng.below(nodes);
          if (u > v) std::swap(u, v);
        } while (u == v || owner(u, v) != p);
        const std::uint64_t slot = u * nodes + v;
        const bool had = present[slot];
        present[slot] = !had;
        queue.submit(p, had ? service::ClientOp::remove_edge(u, v)
                            : service::ClientOp::add_edge(u, v));
      }
      producers_running.fetch_sub(1, std::memory_order_release);
    });
  }

  const std::uint64_t expected = nodes + per_producer * producers;
  const auto t0 = Clock::now();
  core::Batch batch;
  const auto producers_done = [&] {
    return producers_running.load(std::memory_order_acquire) == 0;
  };
  // Drain (and on an error path, discard) until every producer has
  // submitted its last op, then join: a producer blocked on a full lane
  // would never finish, and destroying an unjoined std::thread aborts.
  const auto join_lanes = [&] {
    while (!producers_done())
      if (queue.drain(batch) == 0) std::this_thread::yield();
    for (std::thread& lane : lanes) lane.join();
  };
  while (svc->lsn() < expected) {
    // Read the flag before draining: once every producer has finished, an
    // empty drain means the stream is over, and no drained op is dropped.
    const bool done = producers_done();
    if (queue.drain(batch) == 0) {
      if (done) break;
      std::this_thread::yield();
      continue;
    }
    if (!svc->apply(batch, &error)) {
      std::fprintf(stderr, "error: apply at lsn %llu: %s\n",
                   static_cast<unsigned long long>(svc->lsn()), error.c_str());
      join_lanes();
      return 1;
    }
    queue.ack();
    if (crash_at != 0 && svc->lsn() >= crash_at) crash(crash_at, *svc);
  }
  join_lanes();
  const double run_s = seconds_since(t0);

  std::uint64_t waits = 0;
  for (unsigned p = 0; p < producers; ++p) waits += queue.backpressure_waits(p);
  for (unsigned p = 0; p < producers; ++p) {
    if (queue.acked(p) != queue.submitted(p)) {
      std::fprintf(stderr, "FAIL: lane %u acked %llu != submitted %llu\n", p,
                   static_cast<unsigned long long>(queue.acked(p)),
                   static_cast<unsigned long long>(queue.submitted(p)));
      return 1;
    }
  }
  std::printf("served %llu ops from %u producers to lsn %llu in %.3fs "
              "(%.0f ops/s), %llu backpressure waits, |MIS| %zu, "
              "fingerprint %016llx\n",
              static_cast<unsigned long long>(queue.total_acked()), producers,
              static_cast<unsigned long long>(svc->lsn()), run_s,
              run_s > 0 ? static_cast<double>(svc->lsn()) / run_s : 0.0,
              static_cast<unsigned long long>(waits), svc->engine().mis_size(),
              static_cast<unsigned long long>(core::fingerprint(svc->engine())));
  return close_service(*svc);
}

int cmd_follow(util::Cli& cli) {
  const auto dir = cli.flag_string("dir", "mis-follower", "follower directory");
  const auto leader_dir =
      cli.flag_string("leader-dir", "mis-service", "leader directory to ship from");
  const auto until_lsn = static_cast<std::uint64_t>(cli.flag_int(
      "until-lsn", 0, "stop once this lsn is applied (0 = ship everything durable)"));
  const auto max_pumps = static_cast<std::uint64_t>(
      cli.flag_int("max-pumps", 1 << 22, "shipper tick budget"));
  const auto chunk = static_cast<std::uint64_t>(
      cli.flag_int("chunk", 64 << 10, "shipment chunk bytes"));
  const double drop = cli.flag_double("drop", 0.0, "P(shipment dropped)");
  const double dup = cli.flag_double("dup", 0.0, "P(shipment duplicated)");
  const double reorder = cli.flag_double("reorder", 0.0, "P(shipment held + reordered)");
  const double trunc = cli.flag_double("trunc", 0.0, "P(shipment payload torn)");
  const auto fault_seed =
      static_cast<std::uint64_t>(cli.flag_int("fault-seed", 1, "transport fault seed"));
  const auto priority_seed = static_cast<std::uint64_t>(
      cli.flag_int("priority-seed", 7, "engine seed (cold start only)"));
  cli.finish();

  std::string error;
  service::FollowerOptions options;
  options.priority_seed = priority_seed;
  auto follower = service::FollowerService::open(dir, options, &error);
  if (!follower.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  service::DirectTransport direct(&*follower);
  service::TransportFaults faults;
  faults.drop = drop;
  faults.duplicate = dup;
  faults.reorder = reorder;
  faults.truncate = trunc;
  faults.seed = fault_seed;
  service::FaultyTransport faulty(&direct, faults);
  const bool lossy = drop > 0 || dup > 0 || reorder > 0 || trunc > 0;
  service::ShipmentTransport* transport =
      lossy ? static_cast<service::ShipmentTransport*>(&faulty) : &direct;
  service::LogShipperOptions ship_options;
  ship_options.chunk_bytes = chunk;
  service::LogShipper shipper(leader_dir, transport, ship_options);

  const auto t0 = Clock::now();
  std::uint64_t pumps = 0;
  bool idle = false;
  while (pumps < max_pumps) {
    const auto state = shipper.pump();
    ++pumps;
    if (!follower->poll(&error)) {
      std::fprintf(stderr, "error: poll: %s\n", error.c_str());
      return 1;
    }
    if (until_lsn != 0 && follower->applied_lsn() >= until_lsn) break;
    if (state == service::LogShipper::Pump::kIdle) {
      idle = true;
      break;
    }
  }
  const double ship_s = seconds_since(t0);
  const service::FollowerStats& fs = follower->stats();
  const service::ShipperStats& ss = shipper.stats();
  std::printf("followed to lsn %llu in %.3fs (%s after %llu pumps): "
              "%llu shipments (%llu delivered, %llu lost, %llu rewinds, "
              "%llu bytes), follower %llu accepted / %llu rejected, "
              "%llu checkpoints published, %llu rewarms, %llu ops applied\n",
              static_cast<unsigned long long>(follower->applied_lsn()), ship_s,
              idle ? "idle" : "target reached",
              static_cast<unsigned long long>(pumps),
              static_cast<unsigned long long>(ss.shipments),
              static_cast<unsigned long long>(ss.delivered),
              static_cast<unsigned long long>(ss.lost),
              static_cast<unsigned long long>(ss.rewinds),
              static_cast<unsigned long long>(ss.bytes_shipped),
              static_cast<unsigned long long>(fs.chunks_accepted),
              static_cast<unsigned long long>(fs.chunks_rejected),
              static_cast<unsigned long long>(fs.checkpoints_published),
              static_cast<unsigned long long>(fs.rewarms),
              static_cast<unsigned long long>(fs.ops_applied));
  if (lossy)
    std::printf("transport faults: %llu dropped, %llu duplicated, %llu reordered, "
                "%llu torn\n",
                static_cast<unsigned long long>(faulty.drops()),
                static_cast<unsigned long long>(faulty.duplicates()),
                static_cast<unsigned long long>(faulty.reorders()),
                static_cast<unsigned long long>(faulty.truncations()));
  if (follower->has_engine())
    std::printf("fingerprint %016llx\n",
                static_cast<unsigned long long>(core::fingerprint(follower->engine())));
  if (until_lsn != 0 && follower->applied_lsn() < until_lsn) {
    std::fprintf(stderr, "FAIL: applied lsn %llu short of --until-lsn %llu\n",
                 static_cast<unsigned long long>(follower->applied_lsn()),
                 static_cast<unsigned long long>(until_lsn));
    return 1;
  }
  return 0;
}

int cmd_promote(util::Cli& cli) {
  const auto dir = cli.flag_string("dir", "mis-follower", "follower directory");
  const bool verify = cli.flag_bool(
      "verify", false, "check the promoted engine against the regenerated workload");
  const Workload w = workload_flags(cli);
  cli.finish();

  std::string error;
  service::FollowerOptions options;
  options.priority_seed = w.priority_seed;
  const auto t0 = Clock::now();
  auto follower = service::FollowerService::open(dir, options, &error);
  if (!follower.has_value()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  service::ServiceConfig config;
  config.dir = dir;
  config.priority_seed = w.priority_seed;
  auto svc = follower->promote(config, &error);
  if (!svc.has_value()) {
    std::fprintf(stderr, "error: promote: %s\n", error.c_str());
    return 1;
  }
  const double rto_s = seconds_since(t0);
  std::printf("promoted to leader at lsn %llu in %.6fs (wal segment %llu), "
              "|MIS| %zu, fingerprint %016llx\n",
              static_cast<unsigned long long>(svc->lsn()), rto_s,
              static_cast<unsigned long long>(svc->wal_segment_seq()),
              svc->engine().mis_size(),
              static_cast<unsigned long long>(core::fingerprint(svc->engine())));

  if (verify && !verify_against_workload(svc->engine(), svc->lsn(), "promoted", w))
    return 1;
  return close_service(*svc);
}

int cmd_stats(util::Cli& cli) {
  const auto dir = cli.flag_string("dir", "mis-service", "service directory");
  const bool json = cli.flag_bool("json", false, "emit machine-readable JSON");
  cli.finish();

  struct SegmentRow {
    service::SegmentInfo info;
    std::uint64_t records = 0;
    std::uint64_t end_lsn = 0;
    const char* tail = "unreadable";
    std::string detail;
  };
  const auto checkpoints = service::list_checkpoints(dir);

  // Shallow-open each checkpoint: O(header) per file, and mincore tells us
  // how much of the mapping is actually resident — the footprint a borrowed
  // recovery would start from, vs the full file a materialized load copies.
  struct CheckpointRow {
    std::uint64_t bytes = 0;
    std::uint64_t resident = 0;
    const char* map_mode = "unreadable";
  };
  std::vector<CheckpointRow> cp_rows;
  cp_rows.reserve(checkpoints.size());
  for (const auto& cp : checkpoints) {
    CheckpointRow row;
    graph::Snapshot snap;
    std::string err;
    if (snap.open(cp.path, &err, /*force_read=*/false,
                  graph::SnapshotValidation::kShallow)) {
      row.bytes = snap.file_size();
      row.resident = snap.resident_bytes();
      row.map_mode = snap.is_mapped() ? "mmap" : "read";
    }
    cp_rows.push_back(row);
  }
  // What MisService::open will do with the newest checkpoint by default.
  const char* open_mode =
      service::ServiceConfig{}.borrow ? "borrowed" : "materialized";

  std::vector<std::string> skipped;
  const auto segments = service::list_segments(dir, &skipped);
  std::vector<SegmentRow> rows;
  rows.reserve(segments.size());
  for (const auto& seg : segments) {
    SegmentRow row;
    row.info = seg;
    row.end_lsn = seg.base_lsn;
    service::WalSegmentReader reader;
    std::string error;
    if (reader.open(seg.path, &error)) {
      service::WalRecordView view;
      service::WalSegmentReader::Next state;
      while ((state = reader.next(&view)) == service::WalSegmentReader::Next::kRecord)
        ++row.records;
      row.end_lsn = reader.next_lsn();
      row.tail = state == service::WalSegmentReader::Next::kSealed ? "sealed"
                 : state == service::WalSegmentReader::Next::kEnd  ? "unsealed"
                                                                   : "torn";
      if (state == service::WalSegmentReader::Next::kTorn)
        row.detail = reader.tail_detail();
    } else {
      row.detail = error;
    }
    rows.push_back(std::move(row));
  }

  if (json) {
    std::printf("{\n  \"dir\": \"%s\",\n  \"open_mode\": \"%s\",\n"
                "  \"checkpoints\": [",
                dir.c_str(), open_mode);
    for (std::size_t i = 0; i < checkpoints.size(); ++i)
      std::printf("%s\n    {\"path\": \"%s\", \"lsn\": %llu, \"bytes\": %llu, "
                  "\"resident_bytes\": %llu, \"map_mode\": \"%s\"}",
                  i ? "," : "", checkpoints[i].path.c_str(),
                  static_cast<unsigned long long>(checkpoints[i].lsn),
                  static_cast<unsigned long long>(cp_rows[i].bytes),
                  static_cast<unsigned long long>(cp_rows[i].resident),
                  cp_rows[i].map_mode);
    std::printf("%s],\n  \"segments\": [", checkpoints.empty() ? "" : "\n  ");
    for (std::size_t i = 0; i < rows.size(); ++i)
      std::printf("%s\n    {\"path\": \"%s\", \"seq\": %llu, \"base_lsn\": %llu, "
                  "\"end_lsn\": %llu, \"records\": %llu, \"tail\": \"%s\"}",
                  i ? "," : "", rows[i].info.path.c_str(),
                  static_cast<unsigned long long>(rows[i].info.seq),
                  static_cast<unsigned long long>(rows[i].info.base_lsn),
                  static_cast<unsigned long long>(rows[i].end_lsn),
                  static_cast<unsigned long long>(rows[i].records), rows[i].tail);
    std::printf("%s],\n  \"skipped\": [", rows.empty() ? "" : "\n  ");
    for (std::size_t i = 0; i < skipped.size(); ++i)
      std::printf("%s\"%s\"", i ? ", " : "", skipped[i].c_str());
    std::printf("]\n}\n");
    return 0;
  }

  std::printf("%zu checkpoint(s), recovery opens %s:\n", checkpoints.size(),
              open_mode);
  for (std::size_t i = 0; i < checkpoints.size(); ++i)
    std::printf("  %s  lsn %llu  %llu of %llu bytes resident (%s)\n",
                checkpoints[i].path.c_str(),
                static_cast<unsigned long long>(checkpoints[i].lsn),
                static_cast<unsigned long long>(cp_rows[i].resident),
                static_cast<unsigned long long>(cp_rows[i].bytes),
                cp_rows[i].map_mode);
  std::printf("%zu wal segment(s):\n", rows.size());
  for (const auto& row : rows) {
    std::printf("  %s  seq %llu, lsn [%llu, %llu), %llu records, %s\n",
                row.info.path.c_str(), static_cast<unsigned long long>(row.info.seq),
                static_cast<unsigned long long>(row.info.base_lsn),
                static_cast<unsigned long long>(row.end_lsn),
                static_cast<unsigned long long>(row.records), row.tail);
    if (!row.detail.empty()) std::printf("    %s\n", row.detail.c_str());
  }
  for (const auto& s : skipped) std::printf("  skipped: %s\n", s.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <run|serve|recover|follow|promote|stats> [flags]\n"
                 "run a subcommand with --help for its flags\n",
                 argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  dmis::util::Cli cli(argc - 1, argv + 1);
  if (cmd == "run") return cmd_run(cli);
  if (cmd == "serve") return cmd_serve(cli);
  if (cmd == "recover") return cmd_recover(cli);
  if (cmd == "follow") return cmd_follow(cli);
  if (cmd == "promote") return cmd_promote(cli);
  if (cmd == "stats") return cmd_stats(cli);
  std::fprintf(stderr,
               "unknown subcommand '%s' (want run|serve|recover|follow|promote|stats)\n",
               cmd.c_str());
  return 2;
}
