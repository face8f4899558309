// TraceFile — the versioned binary topology-change trace format, consumed
// in place through util::MmapFile.
//
// This is the only on-disk form of a workload::Trace (workload/trace.hpp):
// ChurnGenerator output round-trips to disk losslessly — abrupt-delete
// markers, unmute ops and add-node neighbor lists included — and replays
// straight from the mapping without materializing a workload::Trace. A
// structurally invalid file is an error from open(), never an abort. The
// ops' meaning — say, a duplicate edge — is checked by materialize(), the
// checked replay the CLIs run on a file before building anything from it
// (`dmis_snapshot save --trace` and `verify`, `dmis_ingest --verify`).
//
// The layout mirrors core::Batch's arena idiom: ops are fixed 24-byte PODs
// whose add-node neighbor lists are (offset, count) views into one shared
// u32 arena, so a million-op trace is two flat arrays, not a million small
// vectors:
//
//   [TraceFileHeader]            fixed 64 bytes, validated on open
//   [ops]    op_count  × TraceOpRecord (24 bytes each)
//   [arena]  arena_len × u32    concatenated add-node neighbor lists
//
// Sections are 8-byte aligned; integers are little-endian with the same
// endian-tag / version / checksum rules as the graph snapshot format (see
// docs/FORMATS.md). open() validates every record — kind in range, arena
// views in bounds — so replay cannot be driven out of bounds by a corrupt
// file.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/batch.hpp"
#include "util/mmap_file.hpp"
#include "workload/trace.hpp"

namespace dmis::workload {

inline constexpr char kTraceMagic[8] = {'D', 'M', 'I', 'S', 'T', 'R', 'C', 'E'};
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::uint32_t kTraceEndianTag = 0x01020304U;

struct TraceFileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian_tag;
  std::uint64_t file_size;
  std::uint64_t op_count;
  std::uint64_t arena_len;  ///< u32 slots in the neighbor arena
  std::uint64_t ops_off;
  std::uint64_t arena_off;
  std::uint64_t payload_checksum;  ///< FNV-1a 64 over bytes [64, file_size)
};
static_assert(sizeof(TraceFileHeader) == 64, "trace header layout is frozen");

struct TraceOpRecord {
  std::uint32_t kind;  ///< OpKind, widened for alignment
  graph::NodeId u;
  graph::NodeId v;
  std::uint32_t nbr_begin;  ///< arena view [nbr_begin, nbr_begin + nbr_count)
  std::uint32_t nbr_count;
  std::uint32_t reserved;
};
static_assert(sizeof(TraceOpRecord) == 24, "trace op record layout is frozen");

/// Read-only view of a trace file; ops and neighbor lists are spans into
/// the mapped bytes (zero-copy; the view must outlive them).
class TraceFile {
 public:
  TraceFile() = default;

  /// Serialize `trace` to `path`. Returns false (with *error) on failure.
  static bool save(const std::string& path, const Trace& trace,
                   std::string* error = nullptr);

  /// Map `path` and validate header + every op record. `force_read` takes
  /// the owned-buffer fallback path.
  bool open(const std::string& path, std::string* error = nullptr,
            bool force_read = false);

  [[nodiscard]] bool is_open() const noexcept { return file_.is_open(); }
  [[nodiscard]] bool is_mapped() const noexcept { return file_.is_mapped(); }
  [[nodiscard]] std::size_t file_size() const noexcept { return file_.size(); }

  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(header_.op_count);
  }
  [[nodiscard]] bool empty() const noexcept { return header_.op_count == 0; }
  [[nodiscard]] std::size_t arena_len() const noexcept {
    return static_cast<std::size_t>(header_.arena_len);
  }

  [[nodiscard]] OpView op(std::size_t i) const noexcept {
    const TraceOpRecord& rec = ops()[i];
    return {static_cast<OpKind>(rec.kind), rec.u, rec.v,
            arena().subspan(rec.nbr_begin, rec.nbr_count)};
  }

  /// Materialize as a workload::Trace (allocates one vector per add-node
  /// op — prefer replay()/append_to_batch() for hot paths).
  [[nodiscard]] Trace to_trace() const;

  /// Replay every op into an engine directly from the mapping, through the
  /// same workload::apply dispatcher a GraphOp takes.
  template <typename Engine>
  void replay(Engine& engine) const {
    for (std::size_t i = 0; i < size(); ++i) apply(engine, op(i));
  }

  /// Payload checksum check (full pass; open() validates structure only).
  [[nodiscard]] bool verify(std::string* error = nullptr) const;

  /// The graph the trace builds, each op checked by workload::apply_checked
  /// against the graph so far. Returns false at the first op that cannot
  /// apply, with "op <i>: <reason>" in *error and `out` untouched, so a bad
  /// file is reported instead of aborting in the graph.
  [[nodiscard]] bool materialize(graph::DynamicGraph& out,
                                 std::string* error = nullptr) const;

 private:
  [[nodiscard]] std::span<const TraceOpRecord> ops() const noexcept {
    return {reinterpret_cast<const TraceOpRecord*>(file_.data() + header_.ops_off),
            static_cast<std::size_t>(header_.op_count)};
  }
  [[nodiscard]] std::span<const graph::NodeId> arena() const noexcept {
    return {reinterpret_cast<const graph::NodeId*>(file_.data() + header_.arena_off),
            static_cast<std::size_t>(header_.arena_len)};
  }

  util::MmapFile file_;
  TraceFileHeader header_{};
};

/// Append ops [begin, end) to `batch` through workload::append_op
/// (arena-to-arena copy).
void append_to_batch(const TraceFile& trace, std::size_t begin, std::size_t end,
                     core::Batch& batch);

}  // namespace dmis::workload
