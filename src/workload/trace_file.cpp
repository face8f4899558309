#include "workload/trace_file.hpp"

#include <cstring>
#include <vector>

#include "util/binary_io.hpp"
#include "workload/batched.hpp"

namespace dmis::workload {

using util::pad8;
using util::set_error;

bool TraceFile::save(const std::string& path, const Trace& trace, std::string* error) {
  // Flatten into the on-disk shape: fixed records + one shared arena.
  std::vector<TraceOpRecord> records;
  records.reserve(trace.size());
  std::vector<graph::NodeId> arena;
  constexpr std::size_t kArenaLimit = ~static_cast<std::uint32_t>(0);
  for (const GraphOp& op : trace) {
    TraceOpRecord rec{};
    rec.kind = static_cast<std::uint32_t>(op.kind);
    rec.u = op.u;
    rec.v = op.v;
    if (op.kind == OpKind::kAddNode || op.kind == OpKind::kUnmuteNode) {
      // Records address the arena with u32 views; refuse to write a file a
      // wrapped offset would make self-consistently wrong.
      if (arena.size() + op.neighbors.size() > kArenaLimit) {
        set_error(error, path + ": neighbor arena exceeds the format's u32 range");
        return false;
      }
      rec.nbr_begin = static_cast<std::uint32_t>(arena.size());
      rec.nbr_count = static_cast<std::uint32_t>(op.neighbors.size());
      arena.insert(arena.end(), op.neighbors.begin(), op.neighbors.end());
    }
    records.push_back(rec);
  }

  TraceFileHeader header{};
  std::memcpy(header.magic, kTraceMagic, sizeof(kTraceMagic));
  header.version = kTraceVersion;
  header.endian_tag = kTraceEndianTag;
  header.op_count = records.size();
  header.arena_len = arena.size();
  header.ops_off = sizeof(TraceFileHeader);
  header.arena_off = pad8(header.ops_off + records.size() * sizeof(TraceOpRecord));
  header.file_size = pad8(header.arena_off + arena.size() * sizeof(graph::NodeId));

  // Crash-safe publish through the same writer as every snapshot.
  util::StagedImage<TraceFileHeader> image =
      util::capture_staged(header, [&](util::ImageWriter& w) {
        w.write(records.data(), records.size() * sizeof(TraceOpRecord));
        w.align8();
        w.write(arena.data(), arena.size() * sizeof(graph::NodeId));
        w.align8();
      });
  return util::publish_staged(path, image, {}, error);
}

bool TraceFile::open(const std::string& path, std::string* error, bool force_read) {
  header_ = TraceFileHeader{};
  if (!file_.open(path, error, force_read)) return false;
  const auto fail = [&](const std::string& message) {
    set_error(error, path + ": " + message);
    file_.reset();
    return false;
  };

  if (file_.size() < sizeof(TraceFileHeader)) return fail("truncated header");
  std::memcpy(&header_, file_.data(), sizeof(TraceFileHeader));
  if (std::memcmp(header_.magic, kTraceMagic, sizeof(kTraceMagic)) != 0)
    return fail("bad magic (not a dmis trace)");
  if (header_.endian_tag != kTraceEndianTag)
    return fail("endianness mismatch (trace written on a different-endian host)");
  if (header_.version != kTraceVersion)
    return fail("unsupported trace version " + std::to_string(header_.version));
  if (header_.file_size != file_.size())
    return fail("file size mismatch (truncated or trailing garbage)");

  const auto section_ok = [&](std::uint64_t off, std::uint64_t len) {
    return (off & 7U) == 0 && off >= sizeof(TraceFileHeader) &&
           off <= header_.file_size && len <= header_.file_size - off;
  };
  if (header_.op_count > header_.file_size || header_.arena_len > header_.file_size)
    return fail("section counts implausibly large");
  if (!section_ok(header_.ops_off, header_.op_count * sizeof(TraceOpRecord)))
    return fail("ops section out of bounds");
  if (!section_ok(header_.arena_off, header_.arena_len * sizeof(graph::NodeId)))
    return fail("arena section out of bounds");

  // Validate every record so op() and replay() are memory-safe afterwards.
  for (const TraceOpRecord& rec : ops()) {
    if (rec.kind > static_cast<std::uint32_t>(OpKind::kRemoveNodeAbrupt))
      return fail("unknown op kind");
    const auto kind = static_cast<OpKind>(rec.kind);
    const bool has_arena_view =
        kind == OpKind::kAddNode || kind == OpKind::kUnmuteNode;
    if (!has_arena_view && rec.nbr_count != 0)
      return fail("non-add op carries an arena view");
    if (rec.nbr_begin > header_.arena_len ||
        rec.nbr_count > header_.arena_len - rec.nbr_begin)
      return fail("arena view out of bounds");
  }
  return true;
}

bool TraceFile::verify(std::string* error) const {
  if (!is_open()) {
    set_error(error, "trace is not open");
    return false;
  }
  const std::uint64_t checksum = util::fnv1a64(
      file_.data() + sizeof(TraceFileHeader), file_.size() - sizeof(TraceFileHeader));
  if (checksum != header_.payload_checksum) {
    set_error(error, "payload checksum mismatch (corrupt trace)");
    return false;
  }
  return true;
}

bool TraceFile::materialize(graph::DynamicGraph& out, std::string* error) const {
  graph::DynamicGraph g;
  for (std::size_t i = 0; i < size(); ++i) {
    const std::string reason = apply_checked(g, op(i));
    if (!reason.empty()) {
      set_error(error, "op " + std::to_string(i) + ": " + reason);
      return false;
    }
  }
  out = std::move(g);
  return true;
}

Trace TraceFile::to_trace() const {
  Trace trace;
  trace.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    const OpView view = op(i);
    trace.push_back(GraphOp{view.kind, view.u, view.v,
                            {view.neighbors.begin(), view.neighbors.end()}});
  }
  return trace;
}

void append_to_batch(const TraceFile& trace, std::size_t begin, std::size_t end,
                     core::Batch& batch) {
  DMIS_ASSERT(begin <= end && end <= trace.size());
  for (std::size_t i = begin; i < end; ++i) append_op(batch, trace.op(i));
}

}  // namespace dmis::workload
