// Segmented write-ahead log for core::Batch op streams — the durability
// half of the crash-safe dynamic-MIS service (service/service.hpp,
// docs/FORMATS.md "Write-ahead log").
//
// Why a WAL at all: an engine snapshot (graph/snapshot.hpp) is a complete
// engine checkpoint, but writing one per update would cost O(n) per op.
// The paper's whole point is expected O(1) adjustments per change, so the
// durability path must be O(change) too: append the op itself, fsync, ack.
// Recovery then is newest checkpoint (bulk warm start) + replay of the op
// tail — both phases proportional to state size + ops since checkpoint,
// never to history length.
//
// Layout. The log is a directory of segment files `wal-<seq>.seg`,
// seq = 1, 2, … monotone for the life of the log (never reused, like node
// ids). Each segment is a 64-byte header followed by records:
//
//   [WalSegmentHeader]  64 bytes: magic "DMISWLOG", version, endian tag,
//                       segment_seq, base_lsn
//   [records...]        each 8-byte aligned:
//     [WalRecordHeader] 32 bytes: crc32c, type, lsn, op_count, arena_len,
//                       payload_bytes
//     [ops]             op_count × 20-byte WalOpRecord (packed by hand —
//                       core::BatchOp has padding bytes and is never
//                       written raw)
//     [arena]           arena_len × u32 add-node neighbor ids
//     [pad]             zeros to the next 8-byte boundary
//
// An LSN is a global op index: the record's `lsn` names its first op, and
// the record carries ops [lsn, lsn + op_count). A segment's base_lsn is
// the lsn of its first record; segments are contiguous in lsn space.
//
// The CRC (util/crc32.hpp) covers header bytes [4, 32) plus the payload,
// so every record is individually verifiable: a torn final record — the
// normal on-disk state after kill -9 mid-append — fails its CRC and the
// reader rejects it *without* giving up the valid prefix before it. A
// `seal` record (type 2, empty) marks an intentional end of segment; an
// unsealed end is a crash tail, and recovery decides from the next
// segment's base_lsn whether the stream continues (service/recovery.hpp).
//
// Durability policies (WalWriter syncs, the service acks after the sync):
//   kEveryOp     one record per op, fsync per record — an acked op is
//                never lost.
//   kEveryBatch  one record per batch, fsync per record — an acked batch
//                is never lost; a crash loses at most the one unsynced
//                record being appended.
//   kInterval    fsync every `fsync_interval_records` records — bounded
//                loss window, throughput mode.
// A failed write or fsync poisons the writer (see util/fault_file.hpp for
// the failure model); durable_lsn() never moves on a failed sync.
//
// The append path is allocation-free in steady state: records serialize
// into one owned buffer that keeps its capacity, and only segment
// rotation (amortized over segment_bytes of appends) touches the
// filesystem namespace. tests/test_service_alloc.cpp enforces this with
// the repo's operator-new counter.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "util/fault_file.hpp"
#include "util/mmap_file.hpp"

namespace dmis::service {

inline constexpr char kWalMagic[8] = {'D', 'M', 'I', 'S', 'W', 'L', 'O', 'G'};
inline constexpr std::uint32_t kWalVersion = 1;
inline constexpr std::uint32_t kWalEndianTag = 0x01020304U;

struct WalSegmentHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian_tag;
  std::uint64_t segment_seq;  ///< 1-based, strictly increasing across the log
  std::uint64_t base_lsn;     ///< lsn of the segment's first record
  std::uint64_t reserved[4];  ///< zero; future use appends here
};
static_assert(sizeof(WalSegmentHeader) == 64, "segment header layout is frozen");

enum class WalRecordType : std::uint32_t {
  kBatch = 1,  ///< op_count ops + arena
  kSeal = 2,   ///< empty; intentional end of segment
};

struct WalRecordHeader {
  std::uint32_t crc;   ///< crc32c over header bytes [4, 32) + payload
  std::uint32_t type;  ///< WalRecordType
  std::uint64_t lsn;   ///< global index of the record's first op
  std::uint32_t op_count;
  std::uint32_t arena_len;      ///< u32 slots in the arena section
  std::uint64_t payload_bytes;  ///< op_count·20 + arena_len·4, before padding
};
static_assert(sizeof(WalRecordHeader) == 32, "record header layout is frozen");

/// On-disk op: core::BatchOp with the Kind widened to u32 and no padding
/// bytes (a raw BatchOp write would leak 3 indeterminate bytes into the
/// CRC'd payload). nbr_begin indexes the *record's own* arena section —
/// records are self-contained, not views into batch-lifetime state.
struct WalOpRecord {
  std::uint32_t kind;  ///< core::BatchOp::Kind
  std::uint32_t u;
  std::uint32_t v;
  std::uint32_t nbr_begin;
  std::uint32_t nbr_count;
};
static_assert(sizeof(WalOpRecord) == 20 && alignof(WalOpRecord) == 4,
              "op record layout is frozen");

enum class FsyncPolicy : std::uint32_t { kEveryOp = 0, kEveryBatch = 1, kInterval = 2 };

/// The policy a CLI names "everyop", "everybatch" or "interval"; false (out
/// untouched) for any other name.
[[nodiscard]] bool parse_fsync_policy(const std::string& name, FsyncPolicy& out);

[[nodiscard]] std::string segment_path(const std::string& dir, std::uint64_t seq);

struct SegmentInfo {
  std::uint64_t seq = 0;
  std::uint64_t base_lsn = 0;
  std::string path;
};

/// The `wal-*.seg` files of `dir` whose headers parse, ascending by seq.
/// Files with unreadable or alien headers are skipped (reported in
/// *skipped when given) — recovery treats them as not part of the log.
[[nodiscard]] std::vector<SegmentInfo> list_segments(
    const std::string& dir, std::vector<std::string>* skipped = nullptr);

struct WalWriterOptions {
  FsyncPolicy fsync = FsyncPolicy::kEveryBatch;
  /// kInterval only: records between fsyncs.
  std::uint64_t fsync_interval_records = 64;
  /// Rotate to a fresh segment once the active one exceeds this.
  std::uint64_t segment_bytes = 64ULL << 20;
  /// Tests inject faults here; empty means util::open_writable.
  util::FileFactory file_factory;
};

class WalWriter {
 public:
  WalWriter() = default;

  /// Create segment `seq` in `dir` (header written + synced) whose first
  /// record will carry lsn `base_lsn`.
  bool open(std::string dir, std::uint64_t seq, std::uint64_t base_lsn,
            WalWriterOptions options, std::string* error);

  /// Append ops [begin, begin + count) of `batch` as one record (arena
  /// views rebased into the record) and sync per policy. Empty ranges are
  /// a no-op. Allocation-free in steady state.
  bool append(const core::Batch& batch, std::size_t begin, std::size_t count,
              std::string* error);
  bool append(const core::Batch& batch, std::string* error) {
    return append(batch, 0, batch.size(), error);
  }

  /// Force everything appended so far to disk (advances durable_lsn()).
  bool sync(std::string* error);

  /// Seal + sync + close the active segment. The writer is then closed;
  /// open() starts the next segment.
  bool close(std::string* error);

  [[nodiscard]] bool is_open() const noexcept { return file_ != nullptr; }
  /// Lsn the next appended op will carry (== ops appended since lsn 0).
  [[nodiscard]] std::uint64_t next_lsn() const noexcept { return next_lsn_; }
  /// Every op below this lsn has been fsynced.
  [[nodiscard]] std::uint64_t durable_lsn() const noexcept { return durable_lsn_; }
  [[nodiscard]] std::uint64_t segment_seq() const noexcept { return seq_; }
  /// Bytes of the active segment covered by the last successful fsync.
  /// Replication ships the active segment only up to this watermark: bytes
  /// past it could still vanish in a leader crash, and a follower must
  /// never apply ops the leader itself would not recover.
  [[nodiscard]] std::uint64_t durable_segment_bytes() const noexcept {
    return durable_segment_bytes_;
  }
  /// Lifetime bytes handed to the filesystem (headers + records + seals,
  /// across rotations) — the numerator of the bench's WAL amplification.
  [[nodiscard]] std::uint64_t bytes_appended() const noexcept { return total_bytes_; }

 private:
  bool open_segment(std::uint64_t seq, std::uint64_t base_lsn, std::string* error);
  bool write_record(WalRecordType type, const core::Batch* batch, std::size_t begin,
                    std::size_t count, std::string* error);
  bool maybe_sync(std::string* error);

  std::string dir_;
  WalWriterOptions options_;
  std::unique_ptr<util::WritableFile> file_;
  std::vector<std::uint8_t> buf_;  // record serialization scratch, reused
  std::uint64_t next_lsn_ = 0;
  std::uint64_t durable_lsn_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t segment_bytes_ = 0;  // bytes in the active segment
  std::uint64_t durable_segment_bytes_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t records_since_sync_ = 0;
  bool broken_ = false;  // a write/sync failed; the log must be recovered
};

/// One record, viewed zero-copy in the mapped segment. Valid until the
/// reader is destroyed.
struct WalRecordView {
  std::uint64_t lsn = 0;
  std::span<const WalOpRecord> ops;
  std::span<const std::uint32_t> arena;
};

/// Sequential validating reader over one segment file. Safe on a *live*
/// segment: kEnd/kTorn leave the scan position on the first unconsumed
/// byte, and refresh() re-maps the file after it grows, so a follower can
/// tail the leader's active segment without ever re-reading (or worse,
/// re-applying) the valid prefix it already consumed.
class WalSegmentReader {
 public:
  /// Map the segment and validate its header.
  bool open(const std::string& path, std::string* error);

  [[nodiscard]] const WalSegmentHeader& header() const noexcept { return header_; }

  enum class Next {
    kRecord,  ///< *out holds the next valid record
    kSealed,  ///< clean seal marker — intentional end of segment
    kEnd,     ///< end of file, no seal — unsealed (crash or active) tail
    kTorn,    ///< trailing bytes that are not a valid record — crash tail
  };

  /// Scan the next record. After kSealed/kEnd/kTorn the reader stays in
  /// that terminal state. Every anomaly — truncated header, bad CRC, lsn
  /// discontinuity, malformed op — is kTorn, because past the first
  /// invalid byte nothing distinguishes torn append from corruption; the
  /// valid prefix before it is intact either way.
  Next next(WalRecordView* out);

  /// Tail-follow: re-map the file if it has grown since open()/the last
  /// refresh and clear a kEnd/kTorn terminal state so next() rescans from
  /// the first unconsumed byte. Returns true iff new bytes are visible.
  /// Prefix-safe by construction: next() never advances past an invalid
  /// byte, so a torn tail that later completes (the writer was mid-append)
  /// revalidates from the same offset and yields each record exactly once.
  /// A kSealed terminal state is permanent — sealed segments are immutable
  /// and a follower moves on to the successor segment instead.
  bool refresh(std::string* error);

  /// Lsn one past the last valid record returned so far.
  [[nodiscard]] std::uint64_t next_lsn() const noexcept { return expected_lsn_; }
  /// Why the terminal state was kTorn ("" otherwise).
  [[nodiscard]] const std::string& tail_detail() const noexcept { return tail_detail_; }

 private:
  Next torn(std::string why);

  util::MmapFile file_;
  std::string path_;
  WalSegmentHeader header_{};
  std::uint64_t pos_ = 0;
  std::uint64_t expected_lsn_ = 0;
  bool done_ = false;
  Next done_state_ = Next::kEnd;
  std::string tail_detail_;
};

}  // namespace dmis::service
