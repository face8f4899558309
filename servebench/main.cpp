// servebench — the repository's end-to-end benchmark of the serving path:
// IngestQueue admission, WAL append + fsync, batch repair, checkpoints,
// recovery and failover, driven through the public API of src/service and
// src/core. servebench/METRICS.md catalogues every workload and metric;
// servebench/run.py builds this program and is the command to run.
//
// One run = one workload, one seed, one mode:
//   * untraced (--trace 0): the product path (MisService::apply etc.),
//     reports the end-to-end metrics;
//   * traced (--trace 1): the consumer composes the same public calls
//     MisService::apply / RecoveryManager::recover make, in the same order,
//     with a span around each, and reports the per-layer metrics.
// Every run verifies its results before reporting; the last stdout line is
// the JSON result object.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "service/checkpoint.hpp"
#include "service/ingest.hpp"
#include "service/recovery.hpp"
#include "service/replication.hpp"
#include "service/service.hpp"
#include "service/wal.hpp"
#include "streams.hpp"
#include "tracing.hpp"
#include "util/fs.hpp"

namespace servebench {
namespace {

using namespace dmis;
namespace fs = std::filesystem;

// --- workloads --------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  bool chung_lu;  // base graph: Chung-Lu (exponent 2.5) or uniform G(n, m)
  NodeId nodes;
  unsigned lanes;  // producer lanes; threads = lanes + the consumer
  service::FsyncPolicy fsync;
  /// kInterval only: records between fsyncs.
  std::uint64_t fsync_interval_records;
  double paced_share;  // of --seconds, at the offered rate
  double flood_share;  // of --seconds, at twice the offered rate
  /// Auto-checkpoint interval as a share of the paced phase's ops (0 =
  /// none). Phases have fixed op counts, so each holds a fixed number of
  /// checkpoints at fixed positions, whatever the run's timing.
  double checkpoint_share;
  unsigned cycles;         // restart cycles: checkpoint, tail, crash, reopen, failover
  std::size_t tail_ops;    // ops ingested between a cycle's checkpoint and its crash
};

constexpr double kAvgDegree = 6.0;
constexpr std::size_t kMaxBatchOps = 256;  // IngestOptions default
constexpr std::size_t kBaseLoadBatch = 1 << 16;
constexpr int kSetupRepeats = 3;
/// The restart cycles' fsync interval on every workload (the default).
constexpr std::uint64_t kCycleFsyncRecords = 64;

/// A restart tail of `intervals` fsync intervals plus half of one, in full
/// records. Each tail starts on a fresh fsync count, so every crash leaves
/// the follower the same 32 records behind and failover_s measures the same
/// work on every workload.
constexpr std::size_t tail_ops(std::size_t intervals) {
  return (intervals * kCycleFsyncRecords + kCycleFsyncRecords / 2) * kMaxBatchOps;
}

constexpr WorkloadSpec kWorkloads[] = {
    {"durable-edges", false, 100000, 2, service::FsyncPolicy::kEveryBatch, 0, 0.5, 0.5,
     0, 9, tail_ops(1)},
    // At the paced rate a record holds a few ops, so the default interval of
    // 64 records would fsync every ~200 ops and keep the fsync on most acks;
    // 1024 keeps it off the ack path, which is what this workload is for.
    {"skew-churn", true, 1000000, 1, service::FsyncPolicy::kInterval, 1024, 0.5, 0.5, 0.9,
     5, tail_ops(3)},
    // Serves at the cycles' interval; its longer tails weigh replay and
    // shipping more in recovery_s and failover_s.
    {"restart", true, 1000000, 1, service::FsyncPolicy::kInterval, kCycleFsyncRecords, 0.3,
     0.3, 0.9, 5, tail_ops(12)},
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double rate = 0;  // offered ops/s of the paced phase, all lanes together
  std::string work_dir = ".bench_build/work";
};

// --- small helpers ----------------------------------------------------------

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

double percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1,
                       std::floor(q * static_cast<double>(v.size()))));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double proc_status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(in, line))
    if (line.compare(0, key_len, key) == 0)
      return std::strtod(line.c_str() + key_len + 1, nullptr) / 1024.0;
  return 0;
}

/// Start a fresh peak-RSS window (Linux clear_refs "5"); ru_maxrss is the
/// fallback when the reset is unavailable.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double peak_rss_mb() {
  const double hwm = proc_status_mb("VmHWM:");
  if (hwm > 0) return hwm;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Order-independent engine fingerprint: membership bytes + RNG state. Equal
/// fingerprints mean the same MIS and the same future priority draws.
std::uint64_t fingerprint(const core::CascadeEngine& engine) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (NodeId v = 0; v < engine.graph().id_bound(); ++v) {
    const std::uint8_t byte = engine.in_mis(v) ? 1 : 0;
    h = fnv1a(&byte, 1, h);
  }
  const util::Rng::State rng = engine.priorities().rng_state();
  return fnv1a(rng.data(), sizeof(rng), h);
}

std::string fs_type_name(long magic) {
  switch (static_cast<unsigned long>(magic)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x01021994UL: return "tmpfs";
    case 0x858458F6UL: return "ramfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(magic));
      return buf;
    }
  }
}

// --- the traced composition -------------------------------------------------

/// What a RecoveryManager::recover composition produced.
struct Recovered {
  std::optional<core::CascadeEngine> engine;
  std::uint64_t lsn = 0;
  std::uint64_t checkpoint_lsn = 0;
  std::uint64_t replayed_ops = 0;
};

/// RecoveryManager::recover's calls, in its order, with a span around each:
/// newest checkpoint that opens and verifies, borrowed graph, warm start,
/// WAL tail replay with the same continuity rules.
bool traced_recover(const std::string& dir, std::uint64_t priority_seed, Tracer* tracer,
                    Recovered* out, std::string* error) {
  Span root(tracer, Name::kRecovery);
  graph::Snapshot snapshot;
  const std::vector<service::CheckpointInfo> checkpoints = service::list_checkpoints(dir);
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    graph::Snapshot candidate;
    std::string cp_error;
    bool good = false;
    {
      Span span(tracer, Name::kRecoveryOpen);
      good = candidate.open(it->path, &cp_error);
    }
    good = good && candidate.has_engine_state();
    if (good) {
      Span span(tracer, Name::kRecoveryVerify);
      good = candidate.verify(&cp_error);
    }
    if (!good) continue;
    snapshot = std::move(candidate);
    out->checkpoint_lsn = it->lsn;
    break;
  }
  if (snapshot.is_open()) {
    auto shared = std::make_shared<graph::Snapshot>(std::move(snapshot));
    graph::DynamicGraph g;
    {
      Span span(tracer, Name::kRecoveryBorrow);
      g = graph::DynamicGraph::borrow(shared);
    }
    Span span(tracer, Name::kRecoveryWarm);
    out->engine.emplace(std::move(g), *shared, shared->priority_seed(),
                        graph::SnapshotLoad::kWarm);
  } else {
    Span span(tracer, Name::kRecoveryWarm);
    out->engine.emplace(priority_seed);
  }
  out->lsn = out->checkpoint_lsn;

  Span replay(tracer, Name::kRecoveryReplay);
  const std::vector<service::SegmentInfo> segments = service::list_segments(dir);
  core::Batch batch;
  core::BatchResult result;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const service::SegmentInfo& seg = segments[i];
    if (i + 1 < segments.size() && segments[i + 1].base_lsn <= out->lsn) continue;
    if (seg.base_lsn > out->lsn) {
      *error = seg.path + ": wal gap";
      return false;
    }
    service::WalSegmentReader reader;
    if (!reader.open(seg.path, error)) break;
    service::WalRecordView view;
    while (reader.next(&view) == service::WalSegmentReader::Next::kRecord) {
      const std::uint64_t record_end = view.lsn + view.ops.size();
      if (record_end <= out->lsn) continue;
      const auto from = static_cast<std::size_t>(out->lsn - view.lsn);
      service::replay_wal_record(*out->engine, view, from, batch, result);
      out->replayed_ops += view.ops.size() - from;
      out->lsn = record_end;
    }
    const bool has_next = i + 1 < segments.size();
    if (has_next && segments[i + 1].base_lsn != reader.next_lsn()) break;
  }
  return true;
}

/// MisService's ingest path composed from its parts: the same WalWriter,
/// core::apply_batch and Checkpointer calls MisService::apply and
/// MisService::checkpoint make, in the same order, each inside a span. WAL
/// segments are TimedFiles so write and fsync show apart. Checkpoint files
/// are not: the snapshot writer issues one write per field.
class ComposedServer {
 public:
  static std::optional<ComposedServer> open(const service::ServiceConfig& config,
                                            Tracer* tracer, std::string* error) {
    if (config.fsync == service::FsyncPolicy::kEveryOp) {
      *error = "the composition covers kEveryBatch and kInterval only";
      return std::nullopt;
    }
    if (!util::ensure_dir(config.dir, error)) return std::nullopt;
    Recovered recovered;
    if (!traced_recover(config.dir, config.priority_seed, tracer, &recovered, error))
      return std::nullopt;
    std::uint64_t max_seq = 0;
    for (const service::SegmentInfo& seg : service::list_segments(config.dir))
      max_seq = seg.seq;
    service::WalWriterOptions wal_options;
    wal_options.fsync = config.fsync;
    wal_options.fsync_interval_records = config.fsync_interval_records;
    wal_options.segment_bytes = config.segment_bytes;
    wal_options.file_factory = timed_factory(tracer);
    service::WalWriter wal;
    if (!wal.open(config.dir, max_seq + 1, recovered.lsn, std::move(wal_options), error))
      return std::nullopt;
    return ComposedServer(config, std::move(*recovered.engine), std::move(wal),
                          recovered.lsn, recovered.checkpoint_lsn, tracer);
  }

  bool apply(const core::Batch& batch, std::string* error) {
    if (batch.empty()) return true;
    {
      Span span(tracer_, Name::kWalAppend);
      if (!wal_.append(batch, error)) return false;
    }
    {
      Span span(tracer_, Name::kCoreApply);
      core::apply_batch(engine_, batch, result_);
    }
    lsn_ += batch.size();
    DMIS_ASSERT(lsn_ == wal_.next_lsn());
    if (config_.checkpoint_interval_ops > 0 &&
        lsn_ - last_checkpoint_lsn_ >= config_.checkpoint_interval_ops)
      return checkpoint(error);
    return true;
  }

  bool checkpoint(std::string* error) {
    Span span(tracer_, Name::kCheckpoint);
    {
      Span sync(tracer_, Name::kWalSyncCall);
      if (!wal_.sync(error)) return false;
    }
    {
      Span publish(tracer_, Name::kCheckpointPublish);
      if (!checkpointer_.checkpoint(engine_, lsn_, error)) return false;
    }
    last_checkpoint_lsn_ = lsn_;
    return true;
  }

  bool close(std::string* error) { return wal_.close(error); }

  [[nodiscard]] const core::CascadeEngine& engine() const noexcept { return engine_; }
  [[nodiscard]] std::uint64_t lsn() const noexcept { return lsn_; }
  [[nodiscard]] const core::BatchResult& last_result() const noexcept { return result_; }
  [[nodiscard]] std::uint64_t wal_bytes_appended() const noexcept {
    return wal_.bytes_appended();
  }
  [[nodiscard]] std::uint64_t checkpoint_bytes() const noexcept {
    return checkpointer_.checkpoint_bytes();
  }
  [[nodiscard]] std::uint64_t checkpoints_taken() const noexcept {
    return checkpointer_.checkpoints_taken();
  }

 private:
  ComposedServer(service::ServiceConfig config, core::CascadeEngine engine,
                 service::WalWriter wal, std::uint64_t lsn, std::uint64_t checkpoint_lsn,
                 Tracer* tracer)
      : config_(std::move(config)),
        engine_(std::move(engine)),
        wal_(std::move(wal)),
        checkpointer_(config_.dir),
        lsn_(lsn),
        last_checkpoint_lsn_(checkpoint_lsn),
        tracer_(tracer) {}

  service::ServiceConfig config_;
  core::CascadeEngine engine_;
  service::WalWriter wal_;
  service::Checkpointer checkpointer_;
  core::BatchResult result_;
  std::uint64_t lsn_ = 0;
  std::uint64_t last_checkpoint_lsn_ = 0;
  Tracer* tracer_;
};

// --- serving phases -----------------------------------------------------------

/// Lane p's ack boundary after one consumer iteration: ops [.., acked) of
/// the phase were drained at drained_ns and acked at acked_ns.
struct AckMark {
  std::uint64_t acked = 0;
  std::int64_t drained_ns = 0;
  std::int64_t acked_ns = 0;
};

struct PhaseLog {
  std::size_t ops_per_lane = 0;
  double interval_ns = 0;  // paced: time between one lane's due times
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  // last ack
  std::vector<std::vector<AckMark>> marks;  // per lane
  std::vector<std::vector<float>> late_us;  // paced, per lane, per op
  std::uint64_t waits = 0;
  std::uint64_t drains = 0;
  std::uint64_t useful_drains = 0;
  std::uint64_t adjustments = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::size_t span_begin = 0;
  std::size_t span_end = 0;

  [[nodiscard]] std::uint64_t ops() const { return ops_per_lane * marks.size(); }

  [[nodiscard]] std::int64_t due_ns(std::size_t i) const {
    return start_ns + std::llround(static_cast<double>(i) * interval_ns);
  }
  /// Per op (paced): due → ack (`acked`) or due → drained.
  [[nodiscard]] std::vector<float> latencies_us(bool acked) const {
    std::vector<float> out;
    out.reserve(ops());
    for (const std::vector<AckMark>& lane : marks) {
      std::size_t m = 0;
      for (std::size_t i = 0; i < ops_per_lane; ++i) {
        while (lane[m].acked <= i) ++m;
        const std::int64_t t = acked ? lane[m].acked_ns : lane[m].drained_ns;
        out.push_back(static_cast<float>(static_cast<double>(t - due_ns(i)) * 1e-3));
      }
    }
    return out;
  }
};

struct Run {
  const WorkloadSpec* spec = nullptr;
  Options options;
  std::string dir;
  std::uint64_t priority_seed = 0;
  std::vector<core::Batch> base;
  std::vector<LaneStream> lanes;
  std::vector<Cursor> cursor;  // per lane: next op not yet handed to the service
  std::size_t paced_per_lane = 0;
  std::size_t flood_per_lane = 0;
  Tracer* tracer = nullptr;

  [[nodiscard]] service::ServiceConfig config(const std::string& path) const {
    service::ServiceConfig c;
    c.dir = path;
    c.priority_seed = priority_seed;
    c.fsync = spec->fsync;
    if (spec->fsync_interval_records > 0)
      c.fsync_interval_records = spec->fsync_interval_records;
    c.checkpoint_interval_ops = static_cast<std::uint64_t>(
        spec->checkpoint_share * static_cast<double>(paced_per_lane * lanes.size()));
    return c;
  }
  /// The restart cycles' service, the same on every workload. Live shipping
  /// is capped at the leader's fsync watermark, so it advances during each
  /// tail, and failover_s is the final drain of the unsynced records plus
  /// promote.
  [[nodiscard]] service::ServiceConfig cycle_config(const std::string& path) const {
    service::ServiceConfig c = config(path);
    c.fsync = service::FsyncPolicy::kInterval;
    c.fsync_interval_records = kCycleFsyncRecords;
    return c;
  }
  [[nodiscard]] std::string leader_dir() const { return dir + "/leader"; }
};

/// Flush dirty pages left by earlier steps before a timed one starts, so an
/// fsync inside it does not also write back their data.
void settle() { ::sync(); }

/// One serving phase: every lane submits its next `ops_per_lane` ops —
/// paced (open loop at the lane's share of the offered rate, each op timed
/// from its due time) or flood (closed loop, back to back) — while this
/// thread drains, applies and acks.
template <class Server>
bool serve_phase(Server& server, Run& run, Tracer* tracer, bool paced,
                 std::size_t ops_per_lane, PhaseLog& log, std::string* error) {
  settle();
  const auto lanes = static_cast<unsigned>(run.lanes.size());
  service::IngestOptions ingest_options;
  ingest_options.producers = lanes;
  ingest_options.max_batch_ops = kMaxBatchOps;
  service::IngestQueue queue(ingest_options);

  log.ops_per_lane = ops_per_lane;
  log.interval_ns = paced ? 1e9 * lanes / run.options.rate : 0;
  log.marks.assign(lanes, {});
  log.late_us.assign(lanes, {});
  if (paced)
    for (auto& late : log.late_us) late.resize(ops_per_lane);
  log.span_begin = tracer != nullptr ? tracer->size() : 0;
  const std::uint64_t wal0 = server.wal_bytes_appended();
  const std::uint64_t cp0 = server.checkpoint_bytes();

  std::atomic<std::int64_t> start{0};
  std::atomic<unsigned> done{0};
  std::atomic<bool> abort{false};
  std::vector<std::uint64_t> waits(lanes, 0);
  std::vector<std::thread> producers;
  producers.reserve(lanes);
  for (unsigned p = 0; p < lanes; ++p) {
    producers.emplace_back([&, p] {
      const LaneStream& lane = run.lanes[p];
      Cursor c = run.cursor[p];
      std::uint64_t lane_waits = 0;
      std::int64_t t0 = 0;
      while ((t0 = start.load(std::memory_order_acquire)) == 0) std::this_thread::yield();
      while (now_ns() < t0) {
      }
      for (std::size_t i = 0; i < ops_per_lane; ++i) {
        if (paced) {
          const std::int64_t due = t0 + std::llround(static_cast<double>(i) * log.interval_ns);
          std::int64_t now = now_ns();
          while (now < due) now = now_ns();
          log.late_us[p][i] = static_cast<float>(static_cast<double>(now - due) * 1e-3);
        }
        const service::ClientOp op = lane.client_op(c);
        while (!queue.try_submit(p, op)) {
          ++lane_waits;
          if (abort.load(std::memory_order_relaxed)) {
            waits[p] = lane_waits;
            return;
          }
          std::this_thread::yield();
        }
      }
      waits[p] = lane_waits;
      done.fetch_add(1, std::memory_order_release);
    });
  }

  log.start_ns = now_ns() + 1000000;  // producers spin up first
  start.store(log.start_ns, std::memory_order_release);
  core::Batch batch;
  std::vector<std::uint64_t> last(lanes, 0);
  bool ok = true;
  for (;;) {
    const bool all_done = done.load(std::memory_order_acquire) == lanes;
    const std::int64_t t_drain = now_ns();
    const std::size_t drained = queue.drain(batch);
    ++log.drains;
    if (drained == 0) {
      if (all_done) break;
      std::this_thread::yield();
      continue;
    }
    const std::int64_t t_drained = now_ns();
    std::uint32_t iteration = 0;
    if (tracer != nullptr) {
      iteration = tracer->begin(Name::kIteration, t_drain);
      tracer->record(Name::kDrain, t_drain, t_drained);
    }
    ++log.useful_drains;
    if (!server.apply(batch, error)) {
      ok = false;
      break;
    }
    log.adjustments += server.last_result().report.adjustments;
    log.evaluated += server.last_result().report.evaluated;
    {
      Span span(tracer, Name::kAck);
      queue.ack();
    }
    const std::int64_t t_acked = now_ns();
    for (unsigned p = 0; p < lanes; ++p) {
      const std::uint64_t a = queue.acked(p);
      if (a == last[p]) continue;
      last[p] = a;
      log.marks[p].push_back({a, t_drained, t_acked});
    }
    log.end_ns = t_acked;
    if (tracer != nullptr) tracer->end(iteration);
  }
  abort.store(true, std::memory_order_relaxed);
  for (std::thread& t : producers) t.join();
  if (!ok) return false;

  for (unsigned p = 0; p < lanes; ++p) {
    log.waits += waits[p];
    if (queue.acked(p) != queue.submitted(p) || queue.acked(p) != ops_per_lane) {
      *error = "lane " + std::to_string(p) + " acked " + std::to_string(queue.acked(p)) +
               " of " + std::to_string(queue.submitted(p)) + " submitted";
      return false;
    }
    run.cursor[p] = run.lanes[p].advance(run.cursor[p], ops_per_lane);
  }
  log.wal_bytes = server.wal_bytes_appended() - wal0;
  log.checkpoint_bytes = server.checkpoint_bytes() - cp0;
  log.span_end = tracer != nullptr ? tracer->size() : 0;
  return true;
}

/// Bulk-load the base graph through the service, then checkpoint it so the
/// first client op starts from a durable base.
template <class Server>
bool base_load(Server& server, const Run& run, std::string* error) {
  for (const core::Batch& b : run.base)
    if (!server.apply(b, error)) return false;
  return server.checkpoint(error);
}

// --- restart cycles -------------------------------------------------------------

struct CycleLog {
  double checkpoint_s = 0;
  double recovery_s = 0;
  double failover_s = 0;
  double ship_s = 0;
  double poll_s = 0;
  double promote_s = 0;
  double resident_mb = 0;
  std::uint64_t tail_ops = 0;
  std::uint64_t replayed_ops = 0;  // traced: ops the composed recovery replayed
  std::uint64_t shipped_bytes = 0;
  std::uint64_t lag_max = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::size_t recovery_span_begin = 0;
  std::size_t recovery_span_end = 0;
};

/// Explicit checkpoint, fresh follower, a fixed tail shipped live, crash
/// (leader dropped without close()), then failover (final drain + promote)
/// and local reopen, each checked against the pre-crash leader.
bool restart_cycle(std::optional<service::MisService>& leader, Run& run, int index,
                   CycleLog& out, std::string* error) {
  Tracer* tracer = run.tracer;
  settle();
  const std::uint64_t cp0 = leader->checkpoint_bytes();
  std::int64_t t = now_ns();
  {
    Span span(tracer, Name::kCheckpoint);
    if (!leader->checkpoint(error)) return false;
  }
  out.checkpoint_s = seconds_between(t, now_ns());
  out.checkpoint_bytes = leader->checkpoint_bytes() - cp0;

  const std::string follower_dir = run.dir + "/follower-" + std::to_string(index);
  service::FollowerOptions follower_options;
  follower_options.priority_seed = run.priority_seed;
  auto follower = service::FollowerService::open(follower_dir, follower_options, error);
  if (!follower.has_value()) return false;
  service::DirectTransport transport(&*follower);
  service::LogShipper shipper(run.leader_dir(), &transport);
  shipper.attach_durable_cursor(&*leader);
  if (!shipper.drain(error) || !follower->poll(error)) return false;
  if (follower->applied_lsn() != leader->lsn()) {
    *error = "follower bootstrap stopped at lsn " + std::to_string(follower->applied_lsn());
    return false;
  }
  const std::uint64_t shipped0 = shipper.stats().bytes_shipped;

  const auto lanes = static_cast<unsigned>(run.lanes.size());
  std::vector<std::size_t> left(lanes, run.spec->tail_ops / lanes);
  core::Batch batch;
  for (;;) {
    batch.clear();
    bool any = true;
    while (batch.size() < kMaxBatchOps && any) {
      any = false;
      for (unsigned p = 0; p < lanes && batch.size() < kMaxBatchOps; ++p) {
        if (left[p] == 0) continue;
        run.lanes[p].append_to(batch, run.cursor[p]);
        --left[p];
        any = true;
      }
    }
    if (batch.empty()) break;
    {
      Span span(tracer, Name::kServiceApply);
      if (!leader->apply(batch, error)) return false;
    }
    out.tail_ops += batch.size();
    t = now_ns();
    {
      Span span(tracer, Name::kShip);
      if (!shipper.drain(error)) return false;
    }
    const std::int64_t t_poll = now_ns();
    {
      Span span(tracer, Name::kPoll);
      if (!follower->poll(error)) return false;
    }
    const std::int64_t t_end = now_ns();
    out.ship_s += seconds_between(t, t_poll);
    out.poll_s += seconds_between(t_poll, t_end);
    out.lag_max = std::max(out.lag_max, leader->lsn() - follower->applied_lsn());
  }

  // Crash: no close(), no seal. The OS keeps what was written, as after
  // kill -9.
  const std::uint64_t lsn = leader->lsn();
  const std::uint64_t want = fingerprint(leader->engine());
  shipper.detach_durable_cursor();
  leader.reset();

  settle();
  t = now_ns();
  {
    Span span(tracer, Name::kShip);
    if (!shipper.drain(error)) return false;
  }
  const std::int64_t t_promote = now_ns();
  std::optional<service::MisService> promoted;
  {
    Span span(tracer, Name::kPromote);
    promoted = follower->promote(run.cycle_config(follower_dir), error);
  }
  const std::int64_t t_promoted = now_ns();
  if (!promoted.has_value()) return false;
  out.failover_s = seconds_between(t, t_promoted);
  out.ship_s += seconds_between(t, t_promote);
  out.promote_s = seconds_between(t_promote, t_promoted);
  out.shipped_bytes = shipper.stats().bytes_shipped - shipped0;
  if (promoted->lsn() != lsn || fingerprint(promoted->engine()) != want) {
    *error = "promoted follower diverges from the pre-crash leader at lsn " +
             std::to_string(lsn);
    return false;
  }
  if (!promoted->close(error)) return false;
  promoted.reset();
  follower.reset();

  settle();
  const double rss0 = proc_status_mb("VmRSS:");
  if (tracer != nullptr) {
    // Traced: time the composition, check it, then reopen through the
    // product path (untimed) to keep serving and to check that too.
    Recovered recovered;
    out.recovery_span_begin = tracer->size();
    t = now_ns();
    if (!traced_recover(run.leader_dir(), run.priority_seed, tracer, &recovered, error))
      return false;
    out.recovery_s = seconds_between(t, now_ns());
    out.recovery_span_end = tracer->size();
    out.resident_mb = proc_status_mb("VmRSS:") - rss0;
    out.replayed_ops = recovered.replayed_ops;
    if (recovered.lsn != lsn || fingerprint(*recovered.engine) != want) {
      *error = "traced recovery diverges from the pre-crash leader";
      return false;
    }
    recovered.engine.reset();
    leader = service::MisService::open(run.cycle_config(run.leader_dir()), error);
  } else {
    t = now_ns();
    leader = service::MisService::open(run.cycle_config(run.leader_dir()), error);
    out.recovery_s = seconds_between(t, now_ns());
    out.resident_mb = proc_status_mb("VmRSS:") - rss0;
  }
  if (!leader.has_value()) return false;
  if (leader->lsn() != lsn || fingerprint(leader->engine()) != want) {
    *error = "reopened leader diverges from the pre-crash leader at lsn " +
             std::to_string(lsn);
    return false;
  }
  std::error_code ec;
  fs::remove_all(follower_dir, ec);
  return true;
}

// --- verification -------------------------------------------------------------

/// The end-of-run checks: the live engine passes the greedy-fixpoint
/// oracle, a reopen reproduces its membership and RNG state, and a
/// reference CascadeEngine fed the base load plus every op each lane handed
/// to the service ends in the same state.
bool final_checks(std::optional<service::MisService>& leader, const Run& run,
                  std::string* error) {
  leader->engine().verify();
  const std::uint64_t lsn = leader->lsn();
  const std::uint64_t want = fingerprint(leader->engine());
  if (!leader->close(error)) return false;
  leader.reset();

  auto reopened = service::MisService::open(run.config(run.leader_dir()), error);
  if (!reopened.has_value()) return false;
  if (reopened->lsn() != lsn || fingerprint(reopened->engine()) != want) {
    *error = "reopen diverges from the live engine at lsn " + std::to_string(lsn);
    return false;
  }

  core::CascadeEngine reference(run.priority_seed);
  for (const core::Batch& b : run.base) (void)core::apply_batch(reference, b);
  core::Batch batch;
  core::BatchResult result;
  std::uint64_t ops = 0;
  for (const core::Batch& b : run.base) ops += b.size();
  for (std::size_t p = 0; p < run.lanes.size(); ++p) {
    Cursor c;
    while (c.op < run.cursor[p].op) {
      batch.clear();
      while (batch.size() < kMaxBatchOps && c.op < run.cursor[p].op)
        run.lanes[p].append_to(batch, c);
      ops += batch.size();
      core::apply_batch(reference, batch, result);
    }
  }
  if (ops != lsn || fingerprint(reference) != want ||
      !(reference.graph() == reopened->engine().graph())) {
    *error = "reference engine fed the same stream diverges at lsn " + std::to_string(lsn);
    return false;
  }
  return reopened->close(error);
}

// --- reporting --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct NameTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

std::array<NameTotals, static_cast<std::size_t>(Name::kCount)> totals(
    const Tracer& tracer, std::size_t begin, std::size_t end) {
  std::array<NameTotals, static_cast<std::size_t>(Name::kCount)> out{};
  const std::vector<SpanRecord>& spans = tracer.spans();
  for (std::size_t i = begin; i < end; ++i) {
    const SpanRecord& s = spans[i];
    const std::int64_t d = s.end_ns - s.start_ns;
    NameTotals& t = out[static_cast<std::size_t>(s.name)];
    ++t.count;
    t.total_ns += d;
    t.self_ns += d;
    if (s.parent != SpanRecord::kNoParent && s.parent >= begin)
      out[static_cast<std::size_t>(spans[s.parent].name)].self_ns -= d;
  }
  return out;
}

std::vector<float> durations_us(const Tracer& tracer, std::size_t begin, std::size_t end,
                                Name name) {
  std::vector<float> out;
  for (std::size_t i = begin; i < end; ++i) {
    const SpanRecord& s = tracer.spans()[i];
    if (s.name == name)
      out.push_back(static_cast<float>(static_cast<double>(s.end_ns - s.start_ns) * 1e-3));
  }
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: servebench --workload durable-edges|skew-churn|restart "
               "--seed N --seconds S --trace 0|1 --rate OPS_PER_S [--work-dir DIR]\n",
               why);
  return 2;
}

// --- the run ------------------------------------------------------------------------

int run_benchmark(const Options& options) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads)
    if (options.workload == w.name) spec = &w;
  if (spec == nullptr) return usage("unknown --workload");
  if (options.rate <= 0) return usage("--rate must be positive");
  if (options.seconds <= 0) return usage("--seconds must be positive");

  Run run;
  run.spec = spec;
  run.options = options;
  run.priority_seed = options.seed * 1000003 + 7;
  run.dir = options.work_dir + "/" + spec->name;
  std::error_code ec;
  fs::remove_all(run.dir, ec);
  fs::create_directories(run.dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", run.dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  struct RunDirGuard {
    std::string dir;
    ~RunDirGuard() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } guard{run.dir};

  // Where the numbers come from: fsync on tmpfs/ramfs costs nothing and
  // would measure a different program.
  struct statfs sfs {};
  if (::statfs(run.dir.c_str(), &sfs) != 0) {
    std::fprintf(stderr, "error: statfs %s failed\n", run.dir.c_str());
    return 1;
  }
  const std::string fs_type = fs_type_name(static_cast<long>(sfs.f_type));
  utsname uts{};
  ::uname(&uts);
  std::printf("env: fs=%s nproc=%ld kernel=%s\n", fs_type.c_str(),
              ::sysconf(_SC_NPROCESSORS_ONLN), uts.release);
  if (fs_type == "tmpfs" || fs_type == "ramfs") {
    std::fprintf(stderr,
                 "error: %s is on %s, where fsync is free; every workload here "
                 "measures fsync, so run from a checkout on a disk-backed filesystem\n",
                 run.dir.c_str(), fs_type.c_str());
    return 3;
  }

  // Inputs, from the seed alone, before any clock starts.
  const unsigned lanes = spec->lanes;
  run.paced_per_lane = static_cast<std::size_t>(
      std::llround(options.rate / lanes * options.seconds * spec->paced_share));
  run.flood_per_lane = static_cast<std::size_t>(
      std::llround(2 * options.rate / lanes * options.seconds * spec->flood_share));
  if (run.paced_per_lane * lanes < 1000 || run.flood_per_lane == 0)
    return usage("--rate x --seconds too small: the paced phase needs 1000 ops for p99");
  const std::size_t floods = options.trace ? 2 : 1;
  const std::size_t per_lane = run.paced_per_lane + floods * run.flood_per_lane +
                               spec->cycles * (spec->tail_ops / lanes);
  {
    util::Rng rng(options.seed);
    graph::DynamicGraph g = spec->chung_lu
                                ? graph::chung_lu(spec->nodes, 2.5, kAvgDegree, rng)
                                : graph::random_avg_degree(spec->nodes, kAvgDegree, rng);
    run.base = base_load_batches(g, kBaseLoadBatch);
    if (lanes == 1) {
      run.lanes.push_back(churn_stream(std::move(g), per_lane, options.seed * 31 + 1));
    } else {
      run.lanes = toggle_streams(g, lanes, per_lane, options.seed * 31 + 1);
    }
  }
  run.cursor.assign(lanes, Cursor{});
  std::printf("inputs: workload=%s seed=%" PRIu64 " nodes=%u lanes=%u ops_per_lane=%zu "
              "paced=%zu flood=%zu digest=%016" PRIx64 "\n",
              spec->name, options.seed, spec->nodes, lanes, per_lane, run.paced_per_lane,
              run.flood_per_lane, digest(run.lanes));

  reset_peak_rss();
  std::string error;
  const auto fail = [&](const char* stage) {
    std::fprintf(stderr, "FAIL (%s): %s\n", stage, error.c_str());
    return 1;
  };

  Tracer tracer_storage;
  Tracer* tracer = options.trace ? &tracer_storage : nullptr;
  run.tracer = tracer;

  std::optional<service::MisService> leader;
  std::vector<double> setup_s;
  PhaseLog paced;
  PhaseLog flood;
  PhaseLog untraced_flood;

  if (!options.trace) {
    // setup_s: open on an empty dir through base load + checkpoint, until
    // the first client op can go in. The last repeat is the one served.
    for (int r = 0; r < kSetupRepeats; ++r) {
      const std::string d = r + 1 == kSetupRepeats ? run.leader_dir()
                                                   : run.dir + "/setup-" + std::to_string(r);
      settle();
      const std::int64_t t = now_ns();
      leader = service::MisService::open(run.config(d), &error);
      if (!leader.has_value() || !base_load(*leader, run, &error)) return fail("setup");
      setup_s.push_back(seconds_between(t, now_ns()));
      if (r + 1 < kSetupRepeats) {
        leader.reset();
        fs::remove_all(d, ec);
      }
    }
    if (!serve_phase(*leader, run, nullptr, true, run.paced_per_lane, paced, &error))
      return fail("paced");
    if (!serve_phase(*leader, run, nullptr, false, run.flood_per_lane, flood, &error))
      return fail("flood");
  } else {
    auto composed = ComposedServer::open(run.config(run.leader_dir()), tracer, &error);
    if (!composed.has_value() || !base_load(*composed, run, &error))
      return fail("traced setup");
    if (!serve_phase(*composed, run, tracer, true, run.paced_per_lane, paced, &error))
      return fail("traced paced");
    if (!serve_phase(*composed, run, tracer, false, run.flood_per_lane, flood, &error))
      return fail("traced flood");
    // The traced directory must recover, through the product path, to the
    // composition's engine — the composition cannot drift from the product.
    const std::uint64_t lsn = composed->lsn();
    const std::uint64_t want = fingerprint(composed->engine());
    if (!composed->close(&error)) return fail("traced close");
    composed.reset();
    // Materialized, like the engine the untraced run serves from: a
    // borrowed graph pays copy-on-write on first touch and would make the
    // comparison flood below slower for a reason that is not tracing.
    service::ServiceConfig reopen = run.config(run.leader_dir());
    reopen.borrow = false;
    leader = service::MisService::open(reopen, &error);
    if (!leader.has_value()) return fail("reopen traced dir");
    if (leader->lsn() != lsn || fingerprint(leader->engine()) != want) {
      error = "traced directory recovers to a different engine";
      return fail("reopen traced dir");
    }
    // Same flood on the product path: the difference is the tracing cost.
    if (!serve_phase(*leader, run, nullptr, false, run.flood_per_lane, untraced_flood, &error))
      return fail("untraced flood");
  }

  // Untimed: move the leader onto the cycles' fsync regime.
  if (!leader->close(&error)) return fail("close before cycles");
  leader.reset();
  leader = service::MisService::open(run.cycle_config(run.leader_dir()), &error);
  if (!leader.has_value()) return fail("reopen before cycles");

  std::vector<CycleLog> cycles(spec->cycles);
  for (unsigned c = 0; c < spec->cycles; ++c)
    if (!restart_cycle(leader, run, static_cast<int>(c), cycles[c], &error))
      return fail("restart cycle");
  const double rss_mb = peak_rss_mb();

  std::uint64_t attempted = paced.ops() + flood.ops() + untraced_flood.ops();
  for (const CycleLog& c : cycles) attempted += c.tail_ops;

  const bool correct = final_checks(leader, run, &error);
  if (!correct) std::fprintf(stderr, "FAIL (verification): %s\n", error.c_str());

  const std::vector<float> ack_us = paced.latencies_us(true);
  const double flood_ops_per_s =
      static_cast<double>(flood.ops()) / seconds_between(flood.start_ns, flood.end_ns);
  std::vector<double> checkpoint_s;
  std::vector<double> recovery_s;
  std::vector<double> failover_s;
  for (const CycleLog& c : cycles) {
    checkpoint_s.push_back(c.checkpoint_s);
    recovery_s.push_back(c.recovery_s);
    failover_s.push_back(c.failover_s);
  }
  std::printf("samples: ack=%zu (paced ops) setup=%d cycles=%u flood_ops=%" PRIu64 "\n",
              ack_us.size(), kSetupRepeats, spec->cycles, flood.ops());

  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"ops_per_s", flood_ops_per_s, "ops/s"},
        {"ack_p99_us", percentile(ack_us, 0.99), "us"},
        {"setup_s", median(setup_s), "s"},
        {"write_bytes_per_op",
         static_cast<double>(flood.wal_bytes + flood.checkpoint_bytes) /
             static_cast<double>(flood.ops()),
         "bytes/op"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"checkpoint_s", median(checkpoint_s), "s"},
        {"recovery_s", median(recovery_s), "s"},
        {"failover_s", median(failover_s), "s"},
    };
  } else {
    const std::size_t begin = paced.span_begin;
    const std::size_t end = flood.span_end;
    const auto t = totals(tracer_storage, begin, end);
    const auto at = [&](Name n) -> const NameTotals& {
      return t[static_cast<std::size_t>(n)];
    };
    const double serving_ops = static_cast<double>(paced.ops() + flood.ops());
    const double busy_ns = static_cast<double>(at(Name::kIteration).total_ns);
    const auto self = [&](std::initializer_list<Name> names) {
      double sum = 0;
      for (const Name n : names) sum += static_cast<double>(at(n).self_ns);
      return sum;
    };
    const double ingest_ns = self({Name::kDrain, Name::kAck});
    const double wal_ns =
        self({Name::kWalAppend, Name::kWalWrite, Name::kWalSync, Name::kWalSyncCall});
    const double core_ns = self({Name::kCoreApply});
    const double checkpoint_ns = self({Name::kCheckpoint, Name::kCheckpointPublish});
    const double residual_ns = self({Name::kIteration});
    const double records = static_cast<double>(at(Name::kWalWrite).count);
    const std::vector<float> fsync_us =
        durations_us(tracer_storage, begin, end, Name::kWalSync);
    std::vector<float> late;
    for (const auto& lane : paced.late_us) late.insert(late.end(), lane.begin(), lane.end());
    const std::vector<float> queue_us = paced.latencies_us(false);

    // Checkpoints of the whole measured run: serving auto-checkpoints plus
    // each restart cycle's explicit one.
    const auto all = totals(tracer_storage, begin, tracer_storage.size());
    const NameTotals& cps = all[static_cast<std::size_t>(Name::kCheckpoint)];
    std::uint64_t cp_bytes = paced.checkpoint_bytes + flood.checkpoint_bytes;
    for (const CycleLog& c : cycles) cp_bytes += c.checkpoint_bytes;
    // Acks a checkpoint held back: paced ops due before it ended whose ack
    // came after.
    std::uint64_t stall_ops = 0;
    for (std::size_t i = paced.span_begin; i < paced.span_end; ++i) {
      const SpanRecord& s = tracer_storage.spans()[i];
      if (s.name != Name::kCheckpoint) continue;
      const auto due_before = static_cast<std::uint64_t>(std::min<double>(
          static_cast<double>(paced.ops_per_lane),
          std::ceil(static_cast<double>(s.end_ns - paced.start_ns) / paced.interval_ns)));
      for (const std::vector<AckMark>& lane : paced.marks) {
        std::uint64_t acked_before = 0;
        for (const AckMark& m : lane)
          if (m.acked_ns < s.end_ns) acked_before = m.acked;
        if (due_before > acked_before) stall_ops += due_before - acked_before;
      }
    }

    std::vector<double> rec_open, rec_verify, rec_borrow, rec_warm, rec_replay,
        rec_resident, ship_s, poll_s, promote_s, shipped;
    std::uint64_t replay_ops = 0;
    std::uint64_t lag_max = 0;
    for (const CycleLog& c : cycles) {
      const auto r = totals(tracer_storage, c.recovery_span_begin, c.recovery_span_end);
      const auto secs = [&](Name n) {
        return static_cast<double>(r[static_cast<std::size_t>(n)].total_ns) * 1e-9;
      };
      rec_open.push_back(secs(Name::kRecoveryOpen));
      rec_verify.push_back(secs(Name::kRecoveryVerify));
      rec_borrow.push_back(secs(Name::kRecoveryBorrow));
      rec_warm.push_back(secs(Name::kRecoveryWarm));
      rec_replay.push_back(secs(Name::kRecoveryReplay));
      rec_resident.push_back(c.resident_mb);
      ship_s.push_back(c.ship_s);
      poll_s.push_back(c.poll_s);
      promote_s.push_back(c.promote_s);
      shipped.push_back(static_cast<double>(c.shipped_bytes) /
                        static_cast<double>(c.tail_ops));
      replay_ops = std::max(replay_ops, c.replayed_ops);
      lag_max = std::max(lag_max, c.lag_max);
    }
    const double traced_ops_per_s = flood_ops_per_s;
    const double untraced_ops_per_s =
        static_cast<double>(untraced_flood.ops()) /
        seconds_between(untraced_flood.start_ns, untraced_flood.end_ns);

    metrics = {
        {"client.late_us_p99", percentile(late, 0.99), "us"},
        {"client.backpressure_waits", static_cast<double>(paced.waits + flood.waits),
         "count"},
        {"ingest.queue_us_p50", percentile(queue_us, 0.50), "us"},
        {"ingest.queue_us_p99", percentile(queue_us, 0.99), "us"},
        {"ingest.batch_ops_mean",
         serving_ops / static_cast<double>(paced.useful_drains + flood.useful_drains),
         "ops"},
        {"ingest.drain_us_per_batch",
         static_cast<double>(at(Name::kDrain).total_ns) * 1e-3 /
             static_cast<double>(at(Name::kDrain).count),
         "us"},
        {"ingest.useful_drain_ratio",
         static_cast<double>(paced.useful_drains + flood.useful_drains) /
             static_cast<double>(paced.drains + flood.drains),
         "ratio"},
        {"wal.append_self_us_per_op",
         static_cast<double>(at(Name::kWalAppend).self_ns) * 1e-3 / serving_ops, "us/op"},
        {"wal.write_us_per_record",
         records > 0 ? static_cast<double>(at(Name::kWalWrite).total_ns) * 1e-3 / records
                     : 0,
         "us"},
        {"wal.fsync_us_p50", percentile(fsync_us, 0.50), "us"},
        {"wal.fsync_us_p99", percentile(fsync_us, 0.99), "us"},
        {"wal.fsyncs_per_kop", static_cast<double>(fsync_us.size()) * 1e3 / serving_ops,
         "1/kop"},
        {"wal.bytes_per_op",
         static_cast<double>(paced.wal_bytes + flood.wal_bytes) / serving_ops,
         "bytes/op"},
        {"core.apply_us_per_op",
         static_cast<double>(at(Name::kCoreApply).total_ns) * 1e-3 / serving_ops, "us/op"},
        {"core.adjustments_per_op",
         static_cast<double>(paced.adjustments + flood.adjustments) / serving_ops, "ratio"},
        {"core.evaluated_per_op",
         static_cast<double>(paced.evaluated + flood.evaluated) / serving_ops, "ratio"},
        {"core.adjustments_per_evaluated",
         static_cast<double>(paced.adjustments + flood.adjustments) /
             static_cast<double>(std::max<std::uint64_t>(1, paced.evaluated + flood.evaluated)),
         "ratio"},
        {"checkpoint.count", static_cast<double>(cps.count), "count"},
        {"checkpoint.s_mean",
         cps.count > 0 ? static_cast<double>(cps.total_ns) * 1e-9 /
                             static_cast<double>(cps.count)
                       : 0,
         "s"},
        {"checkpoint.bytes",
         cps.count > 0 ? static_cast<double>(cp_bytes) / static_cast<double>(cps.count) : 0,
         "bytes"},
        {"checkpoint.stall_ops", static_cast<double>(stall_ops), "ops"},
        {"recovery.open_s", median(rec_open), "s"},
        {"recovery.verify_s", median(rec_verify), "s"},
        {"recovery.borrow_s", median(rec_borrow), "s"},
        {"recovery.warm_s", median(rec_warm), "s"},
        {"recovery.replay_s", median(rec_replay), "s"},
        {"recovery.replay_ops", static_cast<double>(replay_ops), "ops"},
        {"recovery.resident_mb", median(rec_resident), "MB"},
        {"replication.ship_s", median(ship_s), "s"},
        {"replication.poll_s", median(poll_s), "s"},
        {"replication.promote_s", median(promote_s), "s"},
        {"replication.shipped_bytes_per_op", median(shipped), "bytes/op"},
        {"replication.lag_ops_max", static_cast<double>(lag_max), "ops"},
        {"traced.ack_p50_us", percentile(ack_us, 0.50), "us"},
        {"traced.ack_p999_us", percentile(ack_us, 0.999), "us"},
        {"traced.ack_samples", static_cast<double>(ack_us.size()), "count"},
        {"traced.ops_per_s", traced_ops_per_s, "ops/s"},
        {"traced.untraced_ops_per_s", untraced_ops_per_s, "ops/s"},
        {"traced.overhead_share", (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s,
         "share"},
        {"consumer.busy_s", busy_ns * 1e-9, "s"},
        {"share.ingest", ingest_ns / busy_ns, "share"},
        {"share.wal", wal_ns / busy_ns, "share"},
        {"share.core", core_ns / busy_ns, "share"},
        {"share.checkpoint", checkpoint_ns / busy_ns, "share"},
        {"share.residual", residual_ns / busy_ns, "share"},
    };
    std::printf("self-time of the consumer's busy %.3fs: ingest %.1f%% wal %.1f%% core "
                "%.1f%% checkpoint %.1f%% residual (unaccounted) %.2f%%\n",
                busy_ns * 1e-9, 100 * ingest_ns / busy_ns, 100 * wal_ns / busy_ns,
                100 * core_ns / busy_ns, 100 * checkpoint_ns / busy_ns,
                100 * residual_ns / busy_ns);
    std::printf("tracing overhead: flood %.0f ops/s traced vs %.0f untraced (%.1f%%)\n",
                traced_ops_per_s, untraced_ops_per_s,
                100 * (untraced_ops_per_s - traced_ops_per_s) / untraced_ops_per_s);
    // One file per workload, overwritten by the next traced run.
    const std::string trace_path = options.work_dir + "/trace-" + spec->name + ".csv";
    if (tracer_storage.write_csv(trace_path))
      std::printf("trace: %zu spans written to %s\n", tracer_storage.size(),
                  trace_path.c_str());
  }
  print_result(correct, attempted, correct ? 0 : attempted, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return servebench::usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      if (!options.trace && std::strcmp(value, "0") != 0)
        return servebench::usage("--trace takes 0 or 1");
    } else if (flag == "--rate") {
      options.rate = std::strtod(value, &end);
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return servebench::usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0')
      return servebench::usage(("bad value for " + flag).c_str());
  }
  return servebench::run_benchmark(options);
}
