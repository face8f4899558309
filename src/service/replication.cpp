#include "service/replication.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "service/checkpoint.hpp"
#include "util/assert.hpp"
#include "util/binary_io.hpp"  // commit_staged, set_error
#include "util/fs.hpp"

namespace dmis::service {

using util::set_error;

namespace {

std::uint64_t local_file_size(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec) && !ec;
}

bool read_chunk(const std::string& path, std::uint64_t offset, std::uint64_t len,
                std::vector<std::uint8_t>& buf) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  buf.resize(static_cast<std::size_t>(len));
  const bool ok = std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0 &&
                  std::fread(buf.data(), 1, buf.size(), f) == buf.size();
  std::fclose(f);
  return ok;
}

}  // namespace

// --- DirectTransport -------------------------------------------------------

std::optional<ShipAck> DirectTransport::deliver(const Shipment& shipment) {
  return follower_->receive(shipment);
}

// --- FaultyTransport -------------------------------------------------------

bool FaultyTransport::chance(double p) {
  if (p <= 0.0) return false;
  constexpr std::uint64_t kScale = 1u << 24;
  return rng_.below(kScale) < static_cast<std::uint64_t>(p * kScale);
}

std::optional<ShipAck> FaultyTransport::deliver_one(const Shipment& shipment) {
  if (chance(faults_.drop)) {
    ++drops_;
    return std::nullopt;
  }
  Shipment t = shipment;
  if (chance(faults_.truncate) && !t.bytes.empty()) {
    // A torn shipment: some prefix (possibly empty) of the payload
    // arrives. The follower appends it — byte counts stay honest, the
    // missing suffix is re-shipped via the resume rule.
    t.bytes.resize(static_cast<std::size_t>(rng_.below(t.bytes.size())));
    ++truncations_;
  }
  if (!held_.has_value() && chance(faults_.reorder)) {
    // Hold this shipment back; it will be delivered around the *next*
    // send (out of order). To the shipper it looks lost now.
    held_ = std::move(t);
    ++reorders_;
    return std::nullopt;
  }
  std::optional<ShipAck> ack = inner_->deliver(t);
  if (chance(faults_.duplicate)) {
    ++duplicates_;
    const std::optional<ShipAck> again = inner_->deliver(t);
    if (again.has_value()) ack = again;
  }
  return ack;
}

std::optional<ShipAck> FaultyTransport::deliver(const Shipment& shipment) {
  // A held shipment is flushed around this one — before or after, coin
  // flip — so reordering is bounded (one shipment deep) and nothing is
  // held forever as long as the shipper keeps retrying.
  std::optional<Shipment> held;
  held.swap(held_);
  const bool flush_before = held.has_value() && chance(0.5);
  if (flush_before) (void)inner_->deliver(*held);
  std::optional<ShipAck> ack = deliver_one(shipment);
  if (held.has_value() && !flush_before) (void)inner_->deliver(*held);
  return ack;
}

// --- FollowerService -------------------------------------------------------

std::optional<FollowerService> FollowerService::open(std::string dir,
                                                     FollowerOptions options,
                                                     std::string* error) {
  if (!util::ensure_dir(dir, error)) return std::nullopt;
  FollowerService follower(std::move(dir), std::move(options));
  return std::optional<FollowerService>(std::move(follower));
}

std::string FollowerService::target_path(const Shipment& shipment) const {
  if (shipment.kind == Shipment::Kind::kSegment)
    return segment_path(dir_, shipment.id);
  // The partially shipped form (kShipSuffix) is published under the real
  // checkpoint name only once every byte arrived and the file fsynced, so
  // list_checkpoints/recovery never see a half checkpoint — the same
  // visibility rule the leader's own save obeys.
  return checkpoint_path(dir_, shipment.id) + kShipSuffix;
}

void FollowerService::drop_sink() {
  if (sink_ == nullptr) return;
  (void)sink_->sync(nullptr);
  (void)sink_->close(nullptr);
  sink_.reset();
  sink_path_.clear();
  sink_have_ = 0;
}

bool FollowerService::ensure_sink(const std::string& path, std::uint64_t* have) {
  if (sink_ != nullptr && sink_path_ == path) {
    *have = sink_have_;
    return true;
  }
  drop_sink();
  auto file = options_.file_factory ? options_.file_factory(path, nullptr)
                                    : util::open_appendable(path, nullptr);
  if (file == nullptr) return false;
  sink_ = std::move(file);
  sink_path_ = path;
  sink_have_ = local_file_size(path);  // append mode: existing bytes survive
  *have = sink_have_;
  return true;
}

ShipAck FollowerService::receive(const Shipment& shipment) {
  const std::string path = target_path(shipment);

  if (shipment.kind == Shipment::Kind::kCheckpoint) {
    // Already published (a duplicate arriving after completion): the
    // authoritative byte count is the final file's.
    const std::string final_path = checkpoint_path(dir_, shipment.id);
    const std::uint64_t published = local_file_size(final_path);
    if (published == shipment.file_size && published > 0) return {published};
  }

  std::uint64_t have = 0;
  if (!ensure_sink(path, &have)) {
    ++stats_.receive_errors;
    return {local_file_size(path)};
  }

  const std::uint64_t offset = shipment.offset;
  const std::uint64_t len = shipment.bytes.size();
  if (offset > have) {
    // A hole: some earlier chunk never arrived (drop / reorder / truncated
    // predecessor / follower restart). Reject; the ack's `have` tells the
    // shipper where to resume.
    ++stats_.chunks_rejected;
    return {have};
  }
  const std::uint64_t skip = have - offset;  // duplicate/overlap prefix
  if (len > skip) {
    const std::uint64_t fresh = len - skip;
    if (!sink_->write(shipment.bytes.data() + skip,
                      static_cast<std::size_t>(fresh), nullptr)) {
      // Local write failure (fault seam): drop the poisoned sink and
      // re-stat — a short write may have landed a prefix, which is still
      // a valid prefix of the stream.
      ++stats_.receive_errors;
      drop_sink();
      return {local_file_size(path)};
    }
    sink_have_ += fresh;
    stats_.bytes_persisted += fresh;
  }
  ++stats_.chunks_accepted;

  if (shipment.kind == Shipment::Kind::kCheckpoint && shipment.file_size > 0 &&
      sink_have_ >= shipment.file_size) {
    // Complete: publish the way every local save does (fsync, close,
    // rename); a failed publish removes the partial.
    const bool ok = util::commit_staged(*sink_, /*written=*/true,
                                        checkpoint_path(dir_, shipment.id), nullptr);
    const std::uint64_t have_now = sink_have_;
    sink_.reset();
    sink_path_.clear();
    sink_have_ = 0;
    if (!ok) {
      // Ask for a clean re-ship.
      ++stats_.receive_errors;
      return {0};
    }
    ++stats_.checkpoints_published;
    return {have_now};
  }
  return {sink_have_};
}

bool FollowerService::poll(std::string* error) {
  (void)error;
  RecoveryReport report;  // per call: only its counts are kept
  const auto warm = [&] {
    if (!replay_.warm(/*borrow=*/false, report)) return false;
    ++stats_.rewarms;
    return true;
  };
  // The directory changes only through receive(), so within one call a
  // failed warm stays failed, and a warm that succeeded took the newest
  // checkpoint there is: one attempt per call suffices.
  const bool fresh = !replay_.has_engine();
  if (fresh && !warm()) replay_.cold(options_.priority_seed);
  (void)replay_.catch_up(report);
  // Stalled: the chain has not shipped further yet, or the leader truncated
  // it before we caught up — then a newer checkpoint jumps past the hole.
  if (!fresh && warm()) (void)replay_.catch_up(report);
  stats_.records_applied += report.records_replayed;
  stats_.ops_applied += report.replayed_ops;
  return true;
}

std::optional<MisService> FollowerService::promote(ServiceConfig config,
                                                   std::string* error) {
  DMIS_ASSERT_MSG(config.dir.empty() || config.dir == dir_,
                  "promote serves the follower's own directory");
  config.dir = dir_;
  if (!poll(error)) return std::nullopt;  // leaves an engine: warm or cold
  drop_sink();
  RecoveryReport report;
  report.recovered_lsn = replay_.applied_lsn();
  report.checkpoint_lsn = replay_.checkpoint_lsn();
  report.detail = "adopted (follower promotion)\n";
  return MisService::adopt(std::move(config), replay_.take_engine(), std::move(report),
                           error);
}

// --- LogShipper ------------------------------------------------------------

/// Backoff after a lost shipment, in pump ticks: starts at kBackoffStart,
/// doubles per consecutive loss, capped at kBackoffCap.
constexpr std::uint32_t kBackoffStart = 1;
constexpr std::uint32_t kBackoffCap = 64;

LogShipper::LogShipper(std::string leader_dir, ShipmentTransport* transport,
                       LogShipperOptions options)
    : leader_dir_(std::move(leader_dir)),
      transport_(transport),
      options_(options),
      next_backoff_(kBackoffStart) {}

void LogShipper::lose() {
  ++stats_.lost;
  backoff_remaining_ = next_backoff_;
  next_backoff_ = std::min(next_backoff_ * 2, kBackoffCap);
}

LogShipper::Pump LogShipper::ship(const Shipment& shipment, std::uint64_t* cursor) {
  ++stats_.shipments;
  const std::optional<ShipAck> ack = transport_->deliver(shipment);
  if (!ack.has_value()) {
    lose();
    return Pump::kShipped;
  }
  ++stats_.delivered;
  stats_.bytes_shipped += shipment.bytes.size();
  next_backoff_ = kBackoffStart;
  if (ack->have < shipment.offset) ++stats_.rewinds;
  // The ack is the resume protocol: rewind or fast-forward to exactly what
  // the follower holds.
  *cursor = ack->have;
  return Pump::kShipped;
}

LogShipper::Pump LogShipper::pump() {
  if (backoff_remaining_ > 0) {
    --backoff_remaining_;
    ++stats_.backoff_ticks;
    return Pump::kBackoff;
  }

  // Plan: pick the newest checkpoint (warm-start sync) and the segment
  // chain anchor. Runs on first pump and again whenever the source files
  // change under us (checkpoint truncation on the leader).
  if (!cp_active_ && seg_seq_ == 0) {
    const std::vector<CheckpointInfo> checkpoints = list_checkpoints(leader_dir_);
    const std::vector<SegmentInfo> segments = list_segments(leader_dir_);
    std::uint64_t anchor = 0;
    if (!checkpoints.empty() && checkpoints.back().lsn > cp_shipped_lsn_) {
      const CheckpointInfo& cp = checkpoints.back();
      cp_active_ = true;
      cp_lsn_ = cp.lsn;
      cp_size_ = local_file_size(cp.path);
      cp_offset_ = 0;
      anchor = cp.lsn;
    } else {
      anchor = cp_shipped_lsn_;
    }
    const SegmentInfo* start = LogReplayer::segment_holding(segments, anchor);
    if (start == nullptr && !segments.empty()) start = &segments.front();
    if (start != nullptr) {
      seg_seq_ = start->seq;
      seg_offset_ = 0;
    }
    if (!cp_active_ && seg_seq_ == 0) return Pump::kIdle;  // empty leader dir
  }

  if (cp_active_) {
    const std::string path = checkpoint_path(leader_dir_, cp_lsn_);
    if (cp_offset_ >= cp_size_) {
      cp_active_ = false;
      cp_shipped_lsn_ = cp_lsn_;
      return Pump::kShipped;
    }
    const std::uint64_t len =
        std::min<std::uint64_t>(options_.chunk_bytes, cp_size_ - cp_offset_);
    if (!read_chunk(path, cp_offset_, len, buf_)) {
      // Checkpoint vanished (truncated behind an even newer one): re-plan.
      cp_active_ = false;
      seg_seq_ = 0;
      ++stats_.replans;
      return Pump::kShipped;
    }
    Shipment shipment;
    shipment.kind = Shipment::Kind::kCheckpoint;
    shipment.id = cp_lsn_;
    shipment.offset = cp_offset_;
    shipment.file_size = cp_size_;
    shipment.bytes = buf_;
    return ship(shipment, &cp_offset_);
  }

  DMIS_ASSERT(seg_seq_ != 0);
  const std::string path = segment_path(leader_dir_, seg_seq_);
  if (!file_exists(path)) {
    // The segment was truncated away before we shipped it — a newer
    // checkpoint must exist; restart planning from it.
    seg_seq_ = 0;
    cp_shipped_lsn_ = 0;
    ++stats_.replans;
    return Pump::kShipped;
  }
  const std::uint64_t size = local_file_size(path);
  std::uint64_t cap = size;
  if (leader_ != nullptr && seg_seq_ == leader_->wal_segment_seq())
    cap = std::min(cap, leader_->wal_durable_segment_bytes());
  if (seg_offset_ < cap) {
    const std::uint64_t len =
        std::min<std::uint64_t>(options_.chunk_bytes, cap - seg_offset_);
    if (!read_chunk(path, seg_offset_, len, buf_)) {
      seg_seq_ = 0;
      cp_shipped_lsn_ = 0;
      ++stats_.replans;
      return Pump::kShipped;
    }
    Shipment shipment;
    shipment.kind = Shipment::Kind::kSegment;
    shipment.id = seg_seq_;
    shipment.offset = seg_offset_;
    shipment.file_size = size;
    shipment.bytes = buf_;
    return ship(shipment, &seg_offset_);
  }

  // Shipped everything visible in this segment. Advance once the *whole*
  // file is shipped and a successor exists (rotation sealed this one).
  if (seg_offset_ >= size) {
    const std::vector<SegmentInfo> segments = list_segments(leader_dir_);
    const SegmentInfo* successor = nullptr;
    for (const SegmentInfo& seg : segments) {
      if (seg.seq <= seg_seq_) continue;
      if (successor == nullptr || seg.seq < successor->seq) successor = &seg;
    }
    if (successor != nullptr) {
      seg_seq_ = successor->seq;
      seg_offset_ = 0;
      return Pump::kShipped;
    }
  }
  return Pump::kIdle;
}

bool LogShipper::drain(std::string* error, std::uint64_t max_ticks) {
  for (std::uint64_t tick = 0; tick < max_ticks; ++tick) {
    if (pump() == Pump::kIdle) return true;
  }
  set_error(error, "log shipper did not reach idle within the tick budget");
  return false;
}

}  // namespace dmis::service
