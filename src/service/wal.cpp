#include "service/wal.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/assert.hpp"
#include "util/binary_io.hpp"  // pad8, set_error
#include "util/crc32.hpp"

namespace dmis::service {

using util::pad8;
using util::set_error;

namespace {

void append_bytes(std::vector<std::uint8_t>& buf, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf.insert(buf.end(), p, p + n);
}

}  // namespace

bool parse_fsync_policy(const std::string& name, FsyncPolicy& out) {
  if (name == "everyop") out = FsyncPolicy::kEveryOp;
  else if (name == "everybatch") out = FsyncPolicy::kEveryBatch;
  else if (name == "interval") out = FsyncPolicy::kInterval;
  else return false;
  return true;
}

std::string segment_path(const std::string& dir, std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%020" PRIu64 ".seg", seq);
  return dir + "/" + name;
}

std::vector<SegmentInfo> list_segments(const std::string& dir,
                                       std::vector<std::string>* skipped) {
  std::vector<SegmentInfo> segments;
  const auto skip = [&](const std::string& path, const char* why) {
    if (skipped != nullptr) skipped->push_back(path + ": " + why);
  };
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("wal-") || !name.ends_with(".seg")) continue;
    const std::string path = entry.path().string();
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      skip(path, "unreadable");
      continue;
    }
    WalSegmentHeader header{};
    const bool got = std::fread(&header, sizeof(header), 1, f) == 1;
    std::fclose(f);
    if (!got || std::memcmp(header.magic, kWalMagic, sizeof(kWalMagic)) != 0 ||
        header.version != kWalVersion || header.endian_tag != kWalEndianTag ||
        header.segment_seq == 0) {
      skip(path, "invalid segment header");
      continue;
    }
    // The filename is advisory; the header's seq is authoritative. A
    // mismatch means someone renamed files by hand — not part of the log.
    if (path != segment_path(dir, header.segment_seq) &&
        name != std::filesystem::path(segment_path(dir, header.segment_seq))
                    .filename()
                    .string()) {
      skip(path, "filename does not match header seq");
      continue;
    }
    segments.push_back({header.segment_seq, header.base_lsn, path});
  }
  std::sort(segments.begin(), segments.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) { return a.seq < b.seq; });
  return segments;
}

// --- WalWriter -------------------------------------------------------------

bool WalWriter::open(std::string dir, std::uint64_t seq, std::uint64_t base_lsn,
                     WalWriterOptions options, std::string* error) {
  DMIS_ASSERT_MSG(file_ == nullptr, "WalWriter::open on an open writer");
  DMIS_ASSERT_MSG(seq >= 1, "segment seqs are 1-based");
  dir_ = std::move(dir);
  options_ = std::move(options);
  if (!options_.file_factory) options_.file_factory = util::open_writable;
  next_lsn_ = base_lsn;
  durable_lsn_ = base_lsn;
  total_bytes_ = 0;
  broken_ = false;
  return open_segment(seq, base_lsn, error);
}

bool WalWriter::open_segment(std::uint64_t seq, std::uint64_t base_lsn,
                             std::string* error) {
  file_ = options_.file_factory(segment_path(dir_, seq), error);
  if (file_ == nullptr) {
    broken_ = true;
    return false;
  }
  WalSegmentHeader header{};
  std::memcpy(header.magic, kWalMagic, sizeof(kWalMagic));
  header.version = kWalVersion;
  header.endian_tag = kWalEndianTag;
  header.segment_seq = seq;
  header.base_lsn = base_lsn;
  // The header (above all base_lsn) must be durable before any record is:
  // recovery keys cross-segment continuity off it.
  if (!file_->write(&header, sizeof(header), error) || !file_->sync(error)) {
    broken_ = true;
    return false;
  }
  seq_ = seq;
  segment_bytes_ = sizeof(header);
  durable_segment_bytes_ = sizeof(header);
  total_bytes_ += sizeof(header);
  records_since_sync_ = 0;
  return true;
}

bool WalWriter::write_record(WalRecordType type, const core::Batch* batch,
                             std::size_t begin, std::size_t count,
                             std::string* error) {
  buf_.clear();
  WalRecordHeader header{};
  header.type = static_cast<std::uint32_t>(type);
  header.lsn = next_lsn_;
  header.op_count = static_cast<std::uint32_t>(count);
  buf_.resize(sizeof(header));  // zeroed placeholder, patched below

  std::uint32_t arena_len = 0;
  if (batch != nullptr) {
    const std::span<const core::BatchOp> ops = batch->ops();
    for (std::size_t i = begin; i < begin + count; ++i) {
      const core::BatchOp& op = ops[i];
      WalOpRecord rec{static_cast<std::uint32_t>(op.kind), op.u, op.v, 0, 0};
      if (op.kind == core::BatchOp::Kind::kAddNode) {
        rec.nbr_begin = arena_len;
        rec.nbr_count = op.nbr_count;
        arena_len += op.nbr_count;
      }
      append_bytes(buf_, &rec, sizeof(rec));
    }
    for (std::size_t i = begin; i < begin + count; ++i) {
      const core::BatchOp& op = ops[i];
      if (op.kind != core::BatchOp::Kind::kAddNode || op.nbr_count == 0) continue;
      const auto nbrs = batch->neighbors_of(op);
      append_bytes(buf_, nbrs.data(), nbrs.size_bytes());
    }
  }
  const std::uint64_t payload = buf_.size() - sizeof(WalRecordHeader);
  buf_.resize(static_cast<std::size_t>(pad8(buf_.size())), 0);

  header.arena_len = arena_len;
  header.payload_bytes = payload;
  std::memcpy(buf_.data(), &header, sizeof(header));
  const std::uint32_t crc = util::crc32c(
      buf_.data() + sizeof(header.crc),
      sizeof(WalRecordHeader) - sizeof(header.crc) + static_cast<std::size_t>(payload));
  std::memcpy(buf_.data(), &crc, sizeof(crc));

  if (!file_->write(buf_.data(), buf_.size(), error)) {
    broken_ = true;
    return false;
  }
  segment_bytes_ += buf_.size();
  total_bytes_ += buf_.size();
  return true;
}

bool WalWriter::append(const core::Batch& batch, std::size_t begin, std::size_t count,
                       std::string* error) {
  if (count == 0) return true;
  if (broken_ || file_ == nullptr) {
    set_error(error, "wal writer is broken or closed; recover the log");
    return false;
  }
  DMIS_ASSERT(begin + count <= batch.size());
  if (segment_bytes_ >= options_.segment_bytes) {
    // Rotate: seal + sync + close the active segment, open the next. The
    // oversized record that triggered rotation lands whole in the fresh
    // segment — records are never split.
    if (!close(error)) return false;
    if (!open_segment(seq_ + 1, next_lsn_, error)) return false;
  }
  if (!write_record(WalRecordType::kBatch, &batch, begin, count, error)) return false;
  next_lsn_ += count;
  ++records_since_sync_;
  return maybe_sync(error);
}

bool WalWriter::maybe_sync(std::string* error) {
  switch (options_.fsync) {
    case FsyncPolicy::kEveryOp:
    case FsyncPolicy::kEveryBatch:
      return sync(error);
    case FsyncPolicy::kInterval:
      if (records_since_sync_ >= options_.fsync_interval_records) return sync(error);
      return true;
  }
  return true;
}

bool WalWriter::sync(std::string* error) {
  if (broken_) {
    set_error(error, "wal writer is broken; recover the log");
    return false;
  }
  if (file_ == nullptr || durable_lsn_ == next_lsn_) return true;
  if (!file_->sync(error)) {
    // A failed fsync leaves the durability of everything since the last
    // successful sync unknown; durable_lsn_ stays put and the writer is
    // poisoned (util/fault_file.hpp documents the model).
    broken_ = true;
    return false;
  }
  durable_lsn_ = next_lsn_;
  durable_segment_bytes_ = segment_bytes_;
  records_since_sync_ = 0;
  return true;
}

bool WalWriter::close(std::string* error) {
  if (file_ == nullptr) return true;
  if (broken_) {
    (void)file_->close(nullptr);
    file_.reset();
    set_error(error, "wal writer is broken; recover the log");
    return false;
  }
  bool ok = write_record(WalRecordType::kSeal, nullptr, 0, 0, error);
  ok = ok && file_->sync(error);
  if (ok) {
    durable_lsn_ = next_lsn_;
    durable_segment_bytes_ = segment_bytes_;
    records_since_sync_ = 0;
  } else {
    broken_ = true;
  }
  ok = file_->close(ok ? error : nullptr) && ok;
  file_.reset();
  return ok;
}

// --- WalSegmentReader ------------------------------------------------------

bool WalSegmentReader::open(const std::string& path, std::string* error) {
  done_ = false;
  tail_detail_.clear();
  if (!file_.open(path, error)) return false;
  path_ = path;
  const auto fail = [&](const std::string& message) {
    set_error(error, path + ": " + message);
    file_.reset();
    return false;
  };
  if (file_.size() < sizeof(WalSegmentHeader)) return fail("truncated segment header");
  std::memcpy(&header_, file_.data(), sizeof(header_));
  if (std::memcmp(header_.magic, kWalMagic, sizeof(kWalMagic)) != 0)
    return fail("not a WAL segment (bad magic)");
  if (header_.endian_tag != kWalEndianTag) return fail("endianness mismatch");
  if (header_.version != kWalVersion)
    return fail("unsupported WAL version " + std::to_string(header_.version));
  if (header_.segment_seq == 0) return fail("segment seq 0 (seqs are 1-based)");
  pos_ = sizeof(WalSegmentHeader);
  expected_lsn_ = header_.base_lsn;
  return true;
}

bool WalSegmentReader::refresh(std::string* error) {
  DMIS_ASSERT_MSG(file_.is_open(), "WalSegmentReader::refresh before open");
  if (done_ && done_state_ == Next::kSealed) return false;
  std::error_code ec;
  const std::uintmax_t on_disk = std::filesystem::file_size(path_, ec);
  if (ec) {
    set_error(error, path_ + ": " + ec.message());
    return false;
  }
  if (on_disk <= file_.size()) return false;
  // Map the grown file fresh; pos_/expected_lsn_ carry over, so the next
  // next() revalidates exactly the bytes the previous scan stopped on.
  util::MmapFile grown;
  if (!grown.open(path_, error)) return false;
  file_ = std::move(grown);
  done_ = false;
  done_state_ = Next::kEnd;
  tail_detail_.clear();
  return true;
}

WalSegmentReader::Next WalSegmentReader::torn(std::string why) {
  tail_detail_ = path_ + ": " + std::move(why);
  done_ = true;
  done_state_ = Next::kTorn;
  return Next::kTorn;
}

WalSegmentReader::Next WalSegmentReader::next(WalRecordView* out) {
  if (done_) return done_state_;
  DMIS_ASSERT(file_.is_open());
  const std::uint8_t* base = file_.data();
  const std::uint64_t size = file_.size();
  // Built lazily so the happy path allocates nothing for the message.
  const auto at = [this] { return " at offset " + std::to_string(pos_); };
  if (pos_ == size) {
    done_ = true;
    return done_state_ = Next::kEnd;
  }
  if (size - pos_ < sizeof(WalRecordHeader))
    return torn("truncated record header" + at());

  WalRecordHeader header{};
  std::memcpy(&header, base + pos_, sizeof(header));
  if (header.type != static_cast<std::uint32_t>(WalRecordType::kBatch) &&
      header.type != static_cast<std::uint32_t>(WalRecordType::kSeal))
    return torn("bad record type " + std::to_string(header.type) + at());
  const std::uint64_t want_payload =
      static_cast<std::uint64_t>(header.op_count) * sizeof(WalOpRecord) +
      static_cast<std::uint64_t>(header.arena_len) * sizeof(std::uint32_t);
  if (header.payload_bytes != want_payload)
    return torn("payload size mismatch" + at());
  const std::uint64_t record_bytes = pad8(sizeof(WalRecordHeader) + want_payload);
  if (size - pos_ < record_bytes) return torn("record overruns segment" + at());
  const std::uint32_t crc =
      util::crc32c(base + pos_ + sizeof(header.crc),
                   static_cast<std::size_t>(sizeof(WalRecordHeader) -
                                            sizeof(header.crc) + want_payload));
  if (crc != header.crc) return torn("record crc mismatch" + at());
  if (header.lsn != expected_lsn_)
    return torn("lsn discontinuity (record " + std::to_string(header.lsn) +
                ", expected " + std::to_string(expected_lsn_) + ")" + at());

  if (header.type == static_cast<std::uint32_t>(WalRecordType::kSeal)) {
    if (header.op_count != 0 || header.arena_len != 0)
      return torn("non-empty seal record" + at());
    done_ = true;
    return done_state_ = Next::kSealed;
  }

  const auto* ops =
      reinterpret_cast<const WalOpRecord*>(base + pos_ + sizeof(WalRecordHeader));
  const auto* arena = reinterpret_cast<const std::uint32_t*>(
      base + pos_ + sizeof(WalRecordHeader) +
      static_cast<std::uint64_t>(header.op_count) * sizeof(WalOpRecord));
  // Structural op validation: the CRC vouches for the bytes, this vouches
  // for the framing invariants replay relies on.
  for (std::uint32_t i = 0; i < header.op_count; ++i) {
    const WalOpRecord& op = ops[i];
    if (op.kind > static_cast<std::uint32_t>(core::BatchOp::Kind::kRemoveNode))
      return torn("bad op kind " + std::to_string(op.kind) + at());
    if (op.kind == static_cast<std::uint32_t>(core::BatchOp::Kind::kAddNode)) {
      if (static_cast<std::uint64_t>(op.nbr_begin) + op.nbr_count > header.arena_len)
        return torn("op arena view out of bounds" + at());
    } else if (op.nbr_begin != 0 || op.nbr_count != 0) {
      return torn("non-add-node op with arena view" + at());
    }
  }

  out->lsn = header.lsn;
  out->ops = {ops, header.op_count};
  out->arena = {arena, header.arena_len};
  pos_ += record_bytes;
  expected_lsn_ += header.op_count;
  return Next::kRecord;
}

}  // namespace dmis::service
