// Snapshot — the versioned binary on-disk graph format, consumed in place
// through util::MmapFile.
//
// Every bench and test used to rebuild million-node graphs edge by edge
// (hash + two adjacency pushes per edge); a snapshot turns that into an
// mmap + a handful of bulk copies, so Theorem 7-scale workloads become
// reproducible on-disk artifacts that CI can afford to load. The format is
// CSR-style and mirrors DynamicGraph's in-memory layout closely enough that
// DynamicGraph::load is linear work over the mapped arrays:
//
//   [SnapshotHeader]                fixed 104 bytes, validated on open
//   [SnapshotEngineExt]             fixed 64 bytes, version >= 2 only
//   [SnapshotShardExt]              fixed 128 bytes, version 3 only
//   [alive]     id_bound  × u8     1 = live node, 0 = deleted id
//   [offsets]   id_bound+1 × u64   CSR offsets into [neighbors]; off[0] = 0,
//                                  off[id_bound] = 2·edge_count, monotone
//   [neighbors] 2·edge_count × u32 concatenated adjacency lists
//   [edge ctrl] edge_capacity × u8 v1–v3: util::FlatSet control bytes
//   [edge keys] edge_capacity × u64 v1–v3: util::FlatSet key slots
//   [prio keys] id_bound × u64     version >= 2: per-node priority keys
//   [membership] id_bound × u8     version >= 2: 1 = MIS member
//
// Version 1 (graph-only) is frozen; version 2 appended the engine-state
// sections — per-node 64-bit priority keys plus the MIS membership bytes —
// located by offsets in the SnapshotEngineExt header that immediately
// follows the frozen 104-byte base header. Because the greedy-by-priority
// MIS is the unique fixpoint of the node priorities (paper §3), those two
// arrays ARE the complete engine state: a CascadeEngine that adopts them
// warm (its snapshot constructor, graph::SnapshotLoad) restarts with zero
// greedy-recompute work. Version 3 inserted a node-range shard table
// (SnapshotShardExt). Version 4 is v2 without the edge table, which only
// repeated the CSR's edge set (47% of a v2 file). The graph-only save
// writes v1 and every engine save v4; v2 and v3 are read-only (see
// docs/FORMATS.md for the negotiation rules).
//
// Sections are 8-byte aligned (writer pads with zeros) so the reader can
// hand out properly aligned spans straight into the mapped file. All
// integers are little-endian; the header carries an endianness tag and a
// version field, and readers reject anything they do not understand (see
// docs/FORMATS.md for the full rules). Open validates structure — magic,
// version, endianness, section bounds, CSR monotonicity, alive/node-count
// agreement, membership bytes boolean and zero on dead ids — in one cheap
// pass; verify() additionally checks the payload checksum, that the CSR
// describes an undirected simple graph (and, for v1–v3, the same edge set
// as the stored table), and (engine state) that the persisted membership is
// the greedy fixpoint of the persisted keys (the deep check recovery and
// the dmis_snapshot CLI run).
//
// The v1 save streams through util::save_staged; a v4 image is captured in
// memory (capture_snapshot) and written by util::publish_staged
// (util/binary_io.hpp). Both publish the same way: a crash mid-save leaves
// the old file plus at most `<path>.tmp`, never a torn file at `path`.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "graph/dynamic_graph.hpp"
#include "util/binary_io.hpp"  // util::StagedImage
#include "util/mmap_file.hpp"

namespace dmis::graph {

inline constexpr char kSnapshotMagic[8] = {'D', 'M', 'I', 'S', 'S', 'N', 'A', 'P'};
/// Graph-only layout (frozen).
inline constexpr std::uint32_t kSnapshotVersion = 1;
/// Graph + engine-state layout (v1 sections + SnapshotEngineExt + keys +
/// membership). Read-only: accepted and validated, no longer written.
inline constexpr std::uint32_t kSnapshotVersionEngine = 2;
/// v2 + SnapshotShardExt: a node-range shard table once used for parallel
/// warm loads (section contents are byte-identical to v2 — the shard table
/// only inserts a third fixed header, per the FORMATS.md append-only
/// versioning rules). Read-only: accepted and validated, never written.
inline constexpr std::uint32_t kSnapshotVersionSharded = 3;
/// v2 without the edge table (edge_capacity, edge_occupied, edge_ctrl_off
/// and edge_keys_off all 0): what every engine save writes.
inline constexpr std::uint32_t kSnapshotVersionTableFree = 4;
/// Upper bound on v3 shard counts (the shard table is fixed-size).
inline constexpr std::uint32_t kSnapshotMaxShards = 16;
/// Written as the native u32 0x01020304; a reader on a different-endian host
/// sees 0x04030201 and rejects. All production targets are little-endian,
/// so the format is little-endian by fiat.
inline constexpr std::uint32_t kSnapshotEndianTag = 0x01020304U;

struct SnapshotHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t endian_tag;
  std::uint64_t file_size;  ///< total bytes; mismatch ⇒ truncation/garbage
  std::uint32_t id_bound;
  std::uint32_t node_count;
  std::uint64_t edge_count;
  std::uint64_t alive_off;
  std::uint64_t offsets_off;
  std::uint64_t neighbors_off;
  std::uint64_t edge_ctrl_off;
  std::uint64_t edge_keys_off;
  std::uint64_t edge_capacity;  ///< FlatSet slots (0 or power of two ≥ 16)
  std::uint64_t edge_occupied;  ///< full + tombstone slots
  std::uint64_t payload_checksum;  ///< FNV-1a 64 over bytes [104, file_size)
};
static_assert(sizeof(SnapshotHeader) == 104, "snapshot header layout is frozen");

/// Engine-state extension header (v2–v4), after the frozen base header.
/// Part of the checksummed payload (payload_checksum covers [104, file_size)
/// in every version). New engine-state fields append here — bump the version
/// and grow this struct rather than touching SnapshotHeader.
struct SnapshotEngineExt {
  std::uint64_t keys_off;        ///< id_bound × u64 priority keys, 8-aligned
  std::uint64_t membership_off;  ///< id_bound × u8 membership bytes, 8-aligned
  std::uint64_t priority_seed;   ///< seed the saved engine's PriorityMap used
  std::uint64_t mis_size;        ///< number of 1 bytes in [membership]
  std::uint64_t rng_state[4];    ///< xoshiro256** state of the priority RNG:
                                 ///< a warm start continues the exact draw
                                 ///< stream of the saved process
};
static_assert(sizeof(SnapshotEngineExt) == 64, "extension header layout is frozen");

/// Version-3 shard extension header, immediately after SnapshotEngineExt
/// (and inside the checksummed payload). It partitions the node-id space
/// [0, id_bound) into `shard_count` contiguous ranges balanced by adjacency
/// mass at save time: shard s covers [b_s, b_{s+1}) where b_0 = 0,
/// b_shard_count = id_bound, and boundary[i] stores the interior split
/// b_{i+1} for i < shard_count - 1. Every key/membership/CSR section is
/// unchanged from v2 — the table only names disjoint ranges of them.
/// Unused boundary slots must be zero (open() rejects otherwise, so a bit
/// flip in the dormant slots is a structural failure, not silent garbage).
struct SnapshotShardExt {
  std::uint64_t shard_count;      ///< 1 … kSnapshotMaxShards
  std::uint64_t boundary[15];     ///< interior splits, monotone, <= id_bound
};
static_assert(sizeof(SnapshotShardExt) == 128, "shard header layout is frozen");

/// Engine state handed to the v4 writer: spans sized at most id_bound
/// (shorter spans are zero-padded — trailing ids then carry key 0 and
/// membership 0, which only ever happens for dead ids that never drew a
/// priority). core/engine_snapshot.hpp builds these from live engines.
struct EngineStateView {
  std::span<const std::uint64_t> keys;
  std::span<const std::uint8_t> membership;
  std::uint64_t priority_seed = 0;
  std::uint64_t rng_state[4] = {};
};

/// How much of a snapshot open() validates before accepting it.
enum class SnapshotValidation : std::uint8_t {
  /// Header + section bounds + one linear pass over the CSR/alive/membership
  /// arrays + (v1–v3) edge-table shape scan (the default, and the only mode
  /// fuzzed inputs should ever get): every accessor is then memory-safe and
  /// DynamicGraph::load cannot be driven out of bounds.
  kFull,
  /// O(1) checks only — header fields, section bounds, the CSR end-pins and
  /// the edge-table capacity shape. No per-node or per-edge pass, so open
  /// really is ~O(header) and a beyond-RAM file faults in zero pages. Only
  /// for *trusted* files (e.g. a snapshot this process just wrote); a
  /// borrowed graph over a shallow-opened snapshot installs lazy per-node
  /// guards that abort deterministically on first touch of a corrupt
  /// record, but engine-state sections are read unguarded.
  kShallow,
};

/// Read-only view of a snapshot file. Accessors return spans directly into
/// the mapped bytes — zero-copy; the view must outlive them.
class Snapshot {
 public:
  Snapshot() = default;

  /// Map `path` and validate per `validation`. Returns false (with *error
  /// set) on any malformed input; the view is then closed. `force_read`
  /// takes MmapFile's owned-buffer fallback path.
  bool open(const std::string& path, std::string* error = nullptr,
            bool force_read = false,
            SnapshotValidation validation = SnapshotValidation::kFull);

  [[nodiscard]] bool is_open() const noexcept { return file_.is_open(); }
  /// True when backed by a real mapping (false on the read fallback).
  [[nodiscard]] bool is_mapped() const noexcept { return file_.is_mapped(); }
  [[nodiscard]] std::size_t file_size() const noexcept { return file_.size(); }
  /// True when open() ran the full linear validation pass (kFull). Borrow
  /// paths use this to decide whether lazy guards are needed.
  [[nodiscard]] bool deep_validated() const noexcept { return deep_validated_; }
  /// Bytes of the view currently resident in RAM (util::MmapFile) — what a
  /// borrowed graph actually holds, vs file_size() which is what it could
  /// fault in.
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return file_.resident_bytes();
  }

  [[nodiscard]] NodeId id_bound() const noexcept { return header_.id_bound; }
  [[nodiscard]] NodeId node_count() const noexcept { return header_.node_count; }
  [[nodiscard]] std::uint64_t edge_count() const noexcept { return header_.edge_count; }

  [[nodiscard]] bool alive(NodeId v) const noexcept { return alive_bytes()[v] != 0; }
  [[nodiscard]] std::uint32_t degree(NodeId v) const noexcept {
    return static_cast<std::uint32_t>(csr_offsets()[v + 1] - csr_offsets()[v]);
  }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    const std::uint64_t begin = csr_offsets()[v];
    return csr_neighbors().subspan(static_cast<std::size_t>(begin), degree(v));
  }

  [[nodiscard]] std::span<const std::uint8_t> alive_bytes() const noexcept {
    return {section<std::uint8_t>(header_.alive_off), header_.id_bound};
  }
  [[nodiscard]] std::span<const std::uint64_t> csr_offsets() const noexcept {
    return {section<std::uint64_t>(header_.offsets_off),
            static_cast<std::size_t>(header_.id_bound) + 1};
  }
  [[nodiscard]] std::span<const NodeId> csr_neighbors() const noexcept {
    return {section<NodeId>(header_.neighbors_off),
            static_cast<std::size_t>(2 * header_.edge_count)};
  }
  [[nodiscard]] std::span<const std::uint8_t> edge_ctrl() const noexcept {
    return {section<std::uint8_t>(header_.edge_ctrl_off),
            static_cast<std::size_t>(header_.edge_capacity)};
  }
  [[nodiscard]] std::span<const std::uint64_t> edge_keys() const noexcept {
    return {section<std::uint64_t>(header_.edge_keys_off),
            static_cast<std::size_t>(header_.edge_capacity)};
  }
  [[nodiscard]] std::uint64_t edge_occupied() const noexcept {
    return header_.edge_occupied;
  }
  [[nodiscard]] const SnapshotHeader& header() const noexcept { return header_; }

  /// True when the snapshot carries the engine-state sections (persisted
  /// priority keys + membership). The accessors below require it.
  [[nodiscard]] bool has_engine_state() const noexcept {
    return header_.version >= kSnapshotVersionEngine;
  }
  [[nodiscard]] std::span<const std::uint64_t> priority_keys() const noexcept {
    DMIS_ASSERT(has_engine_state());
    return {section<std::uint64_t>(ext_.keys_off), header_.id_bound};
  }
  [[nodiscard]] std::span<const std::uint8_t> membership_bytes() const noexcept {
    DMIS_ASSERT(has_engine_state());
    return {section<std::uint8_t>(ext_.membership_off), header_.id_bound};
  }
  [[nodiscard]] std::uint64_t mis_size() const noexcept {
    DMIS_ASSERT(has_engine_state());
    return ext_.mis_size;
  }
  [[nodiscard]] std::uint64_t priority_seed() const noexcept {
    DMIS_ASSERT(has_engine_state());
    return ext_.priority_seed;
  }
  [[nodiscard]] const SnapshotEngineExt& engine_ext() const noexcept { return ext_; }

  /// Shard count of a v3 file's (validated, otherwise unused) shard table;
  /// pre-v3 snapshots report a single shard.
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return header_.version == kSnapshotVersionSharded
               ? static_cast<std::uint32_t>(shard_.shard_count)
               : 1U;
  }

  /// True for versions 1–3, which store the edge set a second time as a
  /// verbatim util::FlatSet image; a v4 file's edge set is its CSR alone.
  [[nodiscard]] bool has_edge_table() const noexcept {
    return header_.version != kSnapshotVersionTableFree;
  }

  /// Deep integrity check, one sequential pass over the file: payload
  /// checksum; an undirected simple CSR (no self-loops, no entries naming
  /// dead nodes, no duplicate entries, and the v<u entries — edge_count of
  /// them — are the v>u entries mirrored, checked by equal sums of a 64-bit
  /// mix of edge_key on both sides, so an asymmetric CSR passes only on a
  /// 64-bit collision, the odds the checksum already accepts); for v1–v3,
  /// every adjacency pair present in the stored table; and — when engine
  /// state is present — that the persisted membership is exactly the greedy
  /// fixpoint of the persisted priority keys (a warm start from a verified
  /// snapshot therefore needs zero repair work). open() already guarantees
  /// structural safety; this guarantees the data actually describes an
  /// undirected graph (+ a valid engine state).
  [[nodiscard]] bool verify(std::string* error = nullptr) const;

 private:
  template <typename T>
  [[nodiscard]] const T* section(std::uint64_t off) const noexcept {
    return reinterpret_cast<const T*>(file_.data() + off);
  }

  util::MmapFile file_;
  SnapshotHeader header_{};
  SnapshotEngineExt ext_{};    // zero unless header_.version >= 2
  SnapshotShardExt shard_{};   // zero unless header_.version == 3
  bool deep_validated_ = false;
};

/// Write `g` as a version-1 (graph-only) snapshot file. Returns false (with
/// *error) on I/O failure.
bool save_snapshot(const DynamicGraph& g, const std::string& path,
                   std::string* error = nullptr);

/// A version-4 snapshot held in memory: every byte of the file, the
/// payload checksum excepted, which util::publish_staged computes when it
/// writes the image out.
using SnapshotImage = util::StagedImage<SnapshotHeader>;

/// Capture `g` plus engine state as a version-4 image — the one v4 byte
/// emitter. The engine calls this through core::capture_snapshot
/// (core/engine_snapshot.hpp), which extracts the spans; the writer
/// zero-pads short spans to id_bound and computes mis_size itself. The
/// image borrows nothing from `g`, so `g` may change as soon as this
/// returns.
SnapshotImage capture_snapshot(const DynamicGraph& g, const EngineStateView& state);

}  // namespace dmis::graph
