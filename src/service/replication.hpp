// Leader–follower replication by log shipping — the multi-process half of
// the serving story (ROADMAP): the leader's checkpoint and WAL files are
// copied byte for byte into the follower's directory, and the follower
// applies them through the same LogReplayer recovery uses
// (service/recovery.hpp: checkpoint ladder, WAL chain rule, differential
// identity with the leader). Losing the whole leader then costs promoting
// a caught-up follower (MisService::adopt), not replaying history.
//
// Why shipping raw WAL bytes is the right transport here: the WAL already
// *is* the replication stream. Its records carry exactly the serialized op
// order the leader's engine applied, its CRCs make any prefix
// self-validating, and the segment reader tail-follows a growing file
// (wal.hpp refresh()).
//
// The resume protocol is one rule, applied per file: every ShipAck carries
// `have`, the follower's durable byte count for that file. The shipper
// trusts the ack absolutely —
//   * offset > have (follower missed a chunk: drop, reorder, truncated
//     predecessor, follower restart): the chunk is REJECTED and the
//     shipper rewinds to `have`;
//   * offset + len ≤ have (duplicate / already-shipped): accepted as a
//     no-op, shipper fast-forwards to `have`;
//   * overlap: only the unseen suffix is appended.
// Every transport fault — dropped, duplicated, reordered, truncated
// shipments, and follower restarts — converges through that single rule,
// because segment files are append-only and immutable once sealed: byte i
// of a given file has exactly one correct value, so "how many bytes do you
// have" is a complete description of follower state per file. Lsn-based
// resume falls out: the follower's applied lsn is a pure function of the
// shipped byte prefix (docs/FORMATS.md "Log shipping").
//
// Fault model on the wire is FaultyTransport (seeded, deterministic); on
// disk both ends take util::FileFactory seams (the leader's WAL writes and
// the follower's shipment persistence — util::FaultFile on both ends). A
// lost shipment costs the shipper a capped exponential backoff in pump
// ticks before retrying, so a flaky link degrades throughput, not
// correctness.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cascade_engine.hpp"
#include "service/recovery.hpp"
#include "service/service.hpp"
#include "service/wal.hpp"
#include "util/fault_file.hpp"
#include "util/rng.hpp"

namespace dmis::service {

/// One chunk of one replicated file, addressed (kind, id, offset). `id` is
/// the checkpoint lsn or the segment seq; `file_size` is the sender's view
/// of the whole file (for checkpoints it is the final size — they are
/// immutable once published; for segments it is a growing lower bound).
struct Shipment {
  enum class Kind : std::uint32_t { kCheckpoint = 1, kSegment = 2 };
  Kind kind = Kind::kSegment;
  std::uint64_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t file_size = 0;
  std::vector<std::uint8_t> bytes;
};

/// The follower's durable byte count for the shipped file — the entire
/// resume protocol (header comment).
struct ShipAck {
  std::uint64_t have = 0;
};

/// Where shipments go. deliver() returns nullopt when the shipment (or its
/// ack) was lost in transit.
class ShipmentTransport {
 public:
  virtual ~ShipmentTransport() = default;
  virtual std::optional<ShipAck> deliver(const Shipment& shipment) = 0;
};

class FollowerService;

/// Loss-free in-process transport: hands shipments straight to a follower.
class DirectTransport final : public ShipmentTransport {
 public:
  explicit DirectTransport(FollowerService* follower) : follower_(follower) {}
  std::optional<ShipAck> deliver(const Shipment& shipment) override;

 private:
  FollowerService* follower_;
};

/// Seeded lossy-link decorator: drops, duplicates, reorders (holds one
/// shipment back and delivers it around a later one), and truncates
/// shipment payloads. Deterministic given the seed — the differential
/// fuzz sweeps seeds, CI replays failures.
struct TransportFaults {
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double truncate = 0.0;
  std::uint64_t seed = 1;
};

class FaultyTransport final : public ShipmentTransport {
 public:
  FaultyTransport(ShipmentTransport* inner, TransportFaults faults)
      : inner_(inner), faults_(faults), rng_(faults.seed) {}

  std::optional<ShipAck> deliver(const Shipment& shipment) override;

  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return duplicates_; }
  [[nodiscard]] std::uint64_t reorders() const noexcept { return reorders_; }
  [[nodiscard]] std::uint64_t truncations() const noexcept { return truncations_; }

 private:
  bool chance(double p);
  std::optional<ShipAck> deliver_one(const Shipment& shipment);

  ShipmentTransport* inner_;
  TransportFaults faults_;
  util::Rng rng_;
  std::optional<Shipment> held_;  // reordering: delivered around a later send
  std::uint64_t drops_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t reorders_ = 0;
  std::uint64_t truncations_ = 0;
};

struct FollowerOptions {
  /// Cold-start seed if the follower must build from lsn 0 (no shipped
  /// checkpoint); a shipped checkpoint's persisted seed wins, as in
  /// recovery.
  std::uint64_t priority_seed = 42;
  /// How shipment bytes are persisted; empty = util::open_appendable
  /// (append mode — a restarted follower extends partial files, never
  /// truncates them). Tests wrap this in util::FaultFile.
  util::FileFactory file_factory;
};

struct FollowerStats {
  std::uint64_t chunks_accepted = 0;
  std::uint64_t chunks_rejected = 0;  ///< offset ran ahead of `have`
  std::uint64_t bytes_persisted = 0;  ///< appended to local files
  std::uint64_t checkpoints_published = 0;
  std::uint64_t rewarms = 0;  ///< checkpoint jumps (incl. the initial warm start)
  std::uint64_t records_applied = 0;
  std::uint64_t ops_applied = 0;
  std::uint64_t receive_errors = 0;  ///< local write failures (fault seam)
};

/// The receiving half: persists shipments into its own service directory
/// (which stays recovery-compatible at all times — a follower dir IS a
/// valid MisService dir) and applies the growing WAL to a local engine.
/// Single-threaded by design; drive receive() (via a transport) and poll()
/// from one thread.
class FollowerService {
 public:
  static std::optional<FollowerService> open(std::string dir, FollowerOptions options,
                                             std::string* error);

  FollowerService(FollowerService&&) = default;
  FollowerService& operator=(FollowerService&&) = default;

  /// Persist one shipment per the resume protocol; always returns the
  /// authoritative `have` for the shipped file (0 on local write failure,
  /// forcing a clean re-ship).
  ShipAck receive(const Shipment& shipment);

  /// Make progress applying local bytes through the shared LogReplayer
  /// (service/recovery.hpp): on the first call warm from the newest
  /// published checkpoint (materialized, not borrowed), else start cold at
  /// lsn 0; then catch up along the local segment chain, and once stalled
  /// jump forward via a newer published checkpoint if the leader truncated
  /// the chain before we caught up. "Nothing new yet" is not an error;
  /// always returns true (the signature leaves room for local I/O errors).
  bool poll(std::string* error);

  [[nodiscard]] bool has_engine() const noexcept { return replay_.has_engine(); }
  /// Engine state == a never-crashed leader's at exactly applied_lsn().
  [[nodiscard]] const core::CascadeEngine& engine() const { return replay_.engine(); }
  [[nodiscard]] std::uint64_t applied_lsn() const noexcept { return replay_.applied_lsn(); }
  [[nodiscard]] const FollowerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// Failover: final poll(), release local file handles, and wrap the
  /// engine in a serving MisService (fresh WAL segment based at
  /// applied_lsn — MisService::adopt). The follower is consumed. O(state
  /// handoff + one segment create), independent of history length: the RTO
  /// the bench measures. config.dir must be this follower's dir.
  std::optional<MisService> promote(ServiceConfig config, std::string* error);

 private:
  FollowerService(std::string dir, FollowerOptions options)
      : dir_(std::move(dir)), options_(std::move(options)), replay_(dir_) {}

  [[nodiscard]] std::string target_path(const Shipment& shipment) const;
  bool ensure_sink(const std::string& path, std::uint64_t* have);
  void drop_sink();

  std::string dir_;
  FollowerOptions options_;
  LogReplayer replay_;  // engine + applied lsn + open segment
  FollowerStats stats_;

  // Shipment persistence: one open append sink (the hot file).
  std::unique_ptr<util::WritableFile> sink_;
  std::string sink_path_;
  std::uint64_t sink_have_ = 0;
};

struct LogShipperOptions {
  std::uint64_t chunk_bytes = 64 << 10;
};

struct ShipperStats {
  std::uint64_t shipments = 0;       ///< deliver() calls
  std::uint64_t delivered = 0;       ///< acks received
  std::uint64_t lost = 0;            ///< deliver() returned nullopt
  std::uint64_t rewinds = 0;         ///< ack.have < shipped offset
  std::uint64_t bytes_shipped = 0;   ///< payload bytes of acked shipments
  std::uint64_t backoff_ticks = 0;   ///< pump ticks spent waiting
  std::uint64_t replans = 0;         ///< source files changed under us (truncation)
};

/// The sending half: walks the leader directory (checkpoint first, then
/// the segment chain) and pumps chunks through a transport. Stateless on
/// the wire — all resume state comes back in acks — so a shipper can be
/// restarted from scratch against a warm follower and fast-forwards
/// instead of re-sending history.
class LogShipper {
 public:
  /// Ships from `leader_dir` (a live leader's or a dead one's — shipping
  /// reads only what is on disk, which is exactly what recovery would
  /// see). `transport` must outlive the shipper.
  LogShipper(std::string leader_dir, ShipmentTransport* transport,
             LogShipperOptions options = {});

  /// Cap live-segment shipping at `leader`'s fsync watermark so followers
  /// only ever hold ops the leader could itself recover. Detach before
  /// destroying the leader (e.g. simulated crash); shipping then serves
  /// whole files, which is correct for a dead leader — its disk is the
  /// recovery truth.
  void attach_durable_cursor(const MisService* leader) { leader_ = leader; }
  void detach_durable_cursor() { leader_ = nullptr; }

  enum class Pump {
    kShipped,  ///< made progress (sent a chunk, advanced, or re-planned)
    kBackoff,  ///< waiting out a loss; call pump again next tick
    kIdle,     ///< everything on disk (up to the durable cursor) is shipped
  };

  /// One tick: ship at most one chunk. A local file that vanished or cannot
  /// be read re-plans from the directory instead of failing.
  Pump pump();

  /// Pump until idle (catch-up drain, e.g. after the leader died).
  /// `max_ticks` bounds a transport that drops everything forever.
  bool drain(std::string* error, std::uint64_t max_ticks = 1u << 22);

  [[nodiscard]] const ShipperStats& stats() const noexcept { return stats_; }

 private:
  Pump ship(const Shipment& shipment, std::uint64_t* cursor);
  void lose();

  std::string leader_dir_;
  ShipmentTransport* transport_;
  LogShipperOptions options_;
  const MisService* leader_ = nullptr;
  ShipperStats stats_;

  // Checkpoint in flight (initial sync / truncation re-plan).
  bool cp_active_ = false;
  std::uint64_t cp_lsn_ = 0;
  std::uint64_t cp_size_ = 0;
  std::uint64_t cp_offset_ = 0;
  std::uint64_t cp_shipped_lsn_ = 0;  // newest checkpoint fully shipped

  // Segment cursor.
  std::uint64_t seg_seq_ = 0;  // 0 = not chosen yet
  std::uint64_t seg_offset_ = 0;

  std::uint32_t backoff_remaining_ = 0;
  std::uint32_t next_backoff_ = 0;

  std::vector<std::uint8_t> buf_;  // chunk read scratch, reused
};

}  // namespace dmis::service
