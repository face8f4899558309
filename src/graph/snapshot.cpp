#include "graph/snapshot.hpp"

#include <cstring>

#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace dmis::graph {

using util::pad8;
using util::set_error;

bool Snapshot::open(const std::string& path, std::string* error, bool force_read,
                    SnapshotValidation validation) {
  header_ = SnapshotHeader{};
  ext_ = SnapshotEngineExt{};
  shard_ = SnapshotShardExt{};
  deep_validated_ = false;
  if (!file_.open(path, error, force_read)) return false;
  const auto fail = [&](const std::string& message) {
    set_error(error, path + ": " + message);
    file_.reset();
    return false;
  };

  if (file_.size() < sizeof(SnapshotHeader)) return fail("truncated header");
  std::memcpy(&header_, file_.data(), sizeof(SnapshotHeader));
  if (std::memcmp(header_.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0)
    return fail("bad magic (not a dmis snapshot)");
  if (header_.endian_tag != kSnapshotEndianTag)
    return fail("endianness mismatch (snapshot written on a different-endian host)");
  if (header_.version != kSnapshotVersion &&
      header_.version != kSnapshotVersionEngine &&
      header_.version != kSnapshotVersionSharded &&
      header_.version != kSnapshotVersionTableFree)
    return fail("unsupported snapshot version " + std::to_string(header_.version));
  if (header_.file_size != file_.size())
    return fail("file size mismatch (truncated or trailing garbage)");
  // v2 and v4 append the engine-state extension header right after the
  // frozen base header; v3 appends the shard table after that. Every section
  // then starts past all the headers the claimed version carries.
  const bool sharded = header_.version == kSnapshotVersionSharded;
  const std::uint64_t header_end =
      sizeof(SnapshotHeader) +
      (has_engine_state() ? sizeof(SnapshotEngineExt) : std::uint64_t{0}) +
      (sharded ? sizeof(SnapshotShardExt) : std::uint64_t{0});
  if (has_engine_state()) {
    if (file_.size() < header_end) return fail("truncated extension header");
    std::memcpy(&ext_, file_.data() + sizeof(SnapshotHeader), sizeof(SnapshotEngineExt));
  }
  if (sharded) {
    std::memcpy(&shard_,
                file_.data() + sizeof(SnapshotHeader) + sizeof(SnapshotEngineExt),
                sizeof(SnapshotShardExt));
    // The shard table must name a valid partition of [0, id_bound): a
    // plausible count, monotone interior boundaries within range, and dormant
    // slots zero. Anything else is structural corruption. No reader consumes
    // the table any more, but v3 files stay held to the rules they were
    // written under.
    if (shard_.shard_count < 1 || shard_.shard_count > kSnapshotMaxShards)
      return fail("shard count out of range");
    std::uint64_t last = 0;
    for (std::uint64_t s = 0; s + 1 < shard_.shard_count; ++s) {
      if (shard_.boundary[s] < last || shard_.boundary[s] > header_.id_bound)
        return fail("shard boundaries not a monotone partition of the id space");
      last = shard_.boundary[s];
    }
    for (std::uint64_t s = shard_.shard_count > 0 ? shard_.shard_count - 1 : 0;
         s < 15; ++s)
      if (shard_.boundary[s] != 0) return fail("unused shard boundary slot not zero");
  }

  // Section bounds: every [off, off + len) must be 8-aligned and inside the
  // payload. Checked before any accessor can touch the bytes.
  const auto section_ok = [&](std::uint64_t off, std::uint64_t len) {
    return (off & 7U) == 0 && off >= header_end && off <= header_.file_size &&
           len <= header_.file_size - off;
  };
  const std::uint64_t bound = header_.id_bound;
  // A real edge costs ≥ 8 neighbor bytes, so this bound also keeps the
  // section-length arithmetic below far from u64 overflow.
  if (header_.edge_count > header_.file_size) return fail("edge_count implausibly large");
  const std::uint64_t half_edges = 2 * header_.edge_count;
  if (header_.node_count > bound) return fail("node_count exceeds id_bound");
  // The first section starts exactly where the claimed version's headers
  // end (every writer lays files out that way). This pins the version field
  // — which lives outside the checksummed payload — to the layout: a v2
  // file whose version byte is corrupted down to 1 still has alive_off ==
  // 168 and is rejected here, instead of passing every check and silently
  // dropping its engine state.
  if (header_.alive_off != header_end)
    return fail("alive section does not start at the header end for this version");
  if (!section_ok(header_.alive_off, bound)) return fail("alive section out of bounds");
  if (!section_ok(header_.offsets_off, (bound + 1) * 8))
    return fail("offsets section out of bounds");
  if (!section_ok(header_.neighbors_off, half_edges * sizeof(NodeId)))
    return fail("neighbors section out of bounds");
  if (has_edge_table()) {
    if (!section_ok(header_.edge_ctrl_off, header_.edge_capacity))
      return fail("edge ctrl section out of bounds");
    if (!section_ok(header_.edge_keys_off, header_.edge_capacity * 8))
      return fail("edge keys section out of bounds");
    if (header_.edge_count > header_.edge_occupied ||
        header_.edge_occupied > header_.edge_capacity)
      return fail("edge table counters inconsistent");
  } else if (header_.edge_capacity != 0 || header_.edge_occupied != 0 ||
             header_.edge_ctrl_off != 0 || header_.edge_keys_off != 0) {
    // Zero, not merely empty: a v2 file relabeled v4 (same header end, so
    // the alive pin passes) names a table and is rejected here, and a v4
    // file relabeled v2 fails the table bounds above.
    return fail("edge table fields not zero in a version-4 snapshot");
  }
  if (has_engine_state()) {
    if (!section_ok(ext_.keys_off, bound * 8))
      return fail("priority key section out of bounds");
    if (!section_ok(ext_.membership_off, bound))
      return fail("membership section out of bounds");
  }
  // O(1) edge-table capacity shape (full membership classification is the
  // linear scan below): restore() requires a power-of-two capacity ≥ one
  // group, and the occupancy ceiling is what bounds probe chains on a
  // well-formed table. A v4 header passes trivially (all zero).
  if (header_.edge_capacity != 0 &&
      (header_.edge_capacity < 16 ||
       (header_.edge_capacity & (header_.edge_capacity - 1)) != 0))
    return fail("edge table capacity is not a power of two >= 16");
  if (header_.edge_occupied > header_.edge_capacity - header_.edge_capacity / 8)
    return fail("edge table occupancy exceeds the 7/8 ceiling");
  // Two O(1) reads pin the CSR to the neighbor section even in shallow
  // mode; the per-node monotonicity walk is the linear pass below.
  const auto offs = csr_offsets();
  if (offs[0] != 0 || offs[bound] != half_edges)
    return fail("CSR offsets do not cover the neighbor section");

  if (validation == SnapshotValidation::kShallow) return true;

  // One linear pass: CSR offsets monotone and bounded, neighbor ids in
  // range, alive bytes boolean and consistent with node_count, dead nodes
  // degree-free, membership bytes (v2) boolean, zero on dead ids and
  // consistent with the extension header's mis_size. After this every
  // accessor is memory-safe and load() cannot be driven out of bounds by a
  // corrupt file.
  const auto alive_b = alive_bytes();
  const std::uint8_t* member_b =
      has_engine_state() ? section<std::uint8_t>(ext_.membership_off) : nullptr;
  std::uint64_t live = 0;
  std::uint64_t members = 0;
  for (std::uint64_t v = 0; v < bound; ++v) {
    if (offs[v + 1] < offs[v]) return fail("CSR offsets not monotone");
    if (alive_b[v] > 1) return fail("alive section is not boolean");
    if (alive_b[v] == 0 && offs[v + 1] != offs[v])
      return fail("deleted node has neighbors");
    live += alive_b[v];
    if (member_b != nullptr) {
      if (member_b[v] > 1) return fail("membership section is not boolean");
      if (member_b[v] > alive_b[v]) return fail("dead node marked as MIS member");
      members += member_b[v];
    }
  }
  if (live != header_.node_count) return fail("alive section disagrees with node_count");
  if (member_b != nullptr && members != ext_.mis_size)
    return fail("membership section disagrees with mis_size");
  for (const NodeId u : csr_neighbors())
    if (u >= bound) return fail("neighbor id out of range");
  // Full edge-table shape validation (capacity, occupancy ceiling,
  // classification counts) — the same predicate FlatSet::restore enforces,
  // so load() cannot fail on any snapshot open() accepted: corrupt tables
  // are rejected with an error string instead of aborting inside the
  // engine constructors.
  if (has_edge_table() &&
      !util::FlatSet::validate_table_shape(
          edge_ctrl(), static_cast<std::size_t>(header_.edge_count),
          static_cast<std::size_t>(header_.edge_occupied)))
    return fail("edge table fails structural validation");
  deep_validated_ = true;
  return true;
}

bool Snapshot::verify(std::string* error) const {
  const auto fail = [error](const char* message) {
    set_error(error, message);
    return false;
  };
  if (!is_open()) return fail("snapshot is not open");
  if (util::fnv1a64(file_.data() + sizeof(SnapshotHeader),
                    file_.size() - sizeof(SnapshotHeader)) != header_.payload_checksum)
    return fail("payload checksum mismatch (corrupt snapshot)");
  // v1–v3 store the edge set twice; adopt the table so every adjacency
  // pair can be checked against it (open() already pinned its size to
  // edge_count).
  util::FlatSet table;
  if (has_edge_table() &&
      !table.restore(edge_ctrl(), edge_keys(), static_cast<std::size_t>(edge_count()),
                     static_cast<std::size_t>(edge_occupied())))
    return fail("edge table fails structural validation");
  // One sequential pass over the CSR checks structure, then semantics.
  //
  // Structure: an undirected simple graph. With no duplicate entry per
  // list, the v<u entries and the v>u entries are two sets of edge keys;
  // the CSR is symmetric iff they are equal, which the pass checks by their
  // sizes (edge_count each, since open() pinned the total at 2·edge_count)
  // and by equal sums of a 64-bit mix of the keys. Unequal sets pass only
  // on a 64-bit collision — the odds the payload checksum already accepts —
  // and a per-entry search of the other endpoint's list would be quadratic
  // on hubs.
  //
  // Semantics (engine state): the persisted membership must be the greedy
  // fixpoint of the persisted keys: v is a member iff no earlier-ordered
  // live neighbor is. Greedy's output is the *unique* membership with that
  // property (paper §3), so this proves the engine state equals what a
  // cold start would recompute — the warm-start contract. The order
  // mirrors core::priority_before (the strict total order on (key, id)
  // pairs); the graph layer cannot include core, and the tie rule is part
  // of the frozen format semantics now.
  const auto offs = csr_offsets();
  const auto nbrs = csr_neighbors();
  const std::uint64_t* keys = has_engine_state() ? priority_keys().data() : nullptr;
  const std::uint8_t* member = has_engine_state() ? membership_bytes().data() : nullptr;
  const auto before = [keys](NodeId a, NodeId b) noexcept {
    return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
  };
  std::vector<NodeId> last_lister(id_bound(), kInvalidNode);
  std::uint64_t lower_entries = 0;
  std::uint64_t lower_sum = 0;
  std::uint64_t upper_sum = 0;
  bool off_fixpoint = false;
  for (NodeId v = 0; v < id_bound(); ++v) {
    bool blocked = false;
    for (std::uint64_t i = offs[v]; i < offs[v + 1]; ++i) {
      const NodeId u = nbrs[static_cast<std::size_t>(i)];
      if (u == v) return fail("self-loop in adjacency");
      if (!alive(u)) return fail("adjacency entry names a dead node");
      if (last_lister[u] == v) return fail("duplicate adjacency entry");
      last_lister[u] = v;
      std::uint64_t key = edge_key(u, v);
      if (has_edge_table() && !table.contains(key))
        return fail("adjacency entry without a matching edge-table key");
      lower_entries += v < u ? 1 : 0;
      (v < u ? lower_sum : upper_sum) += util::splitmix64(key);
      if (member != nullptr) blocked |= member[u] != 0 && before(u, v);
    }
    if (member != nullptr && alive(v)) off_fixpoint |= (member[v] != 0) == blocked;
  }
  if (lower_entries != edge_count() || lower_sum != upper_sum)
    return fail("adjacency is not symmetric");
  if (off_fixpoint)
    return fail(
        "persisted membership is not the greedy fixpoint of the persisted priority keys");
  return true;
}

namespace {

/// Compute the header (and, for v4, the extension header) a save will
/// write: section offsets, counts, file size — everything except the
/// payload checksum, which only exists once the payload has streamed.
/// Exactly one of `edges` (v1: the table to store) and `state` (v4) is set.
void layout_snapshot(const DynamicGraph& g, const util::FlatSet* edges,
                     const EngineStateView* state, SnapshotHeader* header,
                     SnapshotEngineExt* ext) {
  std::memcpy(header->magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header->version = state == nullptr ? kSnapshotVersion : kSnapshotVersionTableFree;
  header->endian_tag = kSnapshotEndianTag;
  header->id_bound = g.id_bound();
  header->node_count = g.node_count();
  header->edge_count = g.edge_count();

  if (state != nullptr) {
    DMIS_ASSERT_MSG(state->keys.size() <= header->id_bound &&
                        state->membership.size() <= header->id_bound,
                    "engine state spans exceed the graph's id bound");
    ext->priority_seed = state->priority_seed;
    for (int w = 0; w < 4; ++w) ext->rng_state[w] = state->rng_state[w];
    for (const std::uint8_t m : state->membership) ext->mis_size += m;
  }

  // Lay out the sections up front so the header can be written first.
  std::uint64_t off = sizeof(SnapshotHeader);
  if (state != nullptr) off += sizeof(SnapshotEngineExt);
  header->alive_off = off;
  off = pad8(off + header->id_bound);
  header->offsets_off = off;
  off = pad8(off + (static_cast<std::uint64_t>(header->id_bound) + 1) * 8);
  header->neighbors_off = off;
  off = pad8(off + 2 * header->edge_count * sizeof(NodeId));
  if (edges != nullptr) {
    header->edge_capacity = edges->capacity();
    header->edge_occupied = edges->occupied();
    header->edge_ctrl_off = off;
    off = pad8(off + header->edge_capacity);
    header->edge_keys_off = off;
    off = pad8(off + header->edge_capacity * 8);
  }
  if (state != nullptr) {
    ext->keys_off = off;
    off = pad8(off + static_cast<std::uint64_t>(header->id_bound) * 8);
    ext->membership_off = off;
    off = pad8(off + header->id_bound);
  }
  header->file_size = off;
}

/// The graph's per-node sections, read once per save (DynamicGraph::
/// node_sections) and walked by each pass over the payload: both of a v1
/// save's, the one of a v4 capture. 17 bytes per id, freed when the save
/// returns.
struct NodeSections {
  std::vector<std::uint8_t> alive;
  std::vector<std::span<const NodeId>> neighbors;  // empty for dead ids

  explicit NodeSections(const DynamicGraph& g)
      : alive(g.id_bound(), 0), neighbors(g.id_bound()) {
    g.node_sections(alive, neighbors);
  }
};

/// Stream the checksummed payload (everything after SnapshotHeader) through
/// `w`: either pass of util::save_staged (v1) or util::capture_staged (v4).
template <class Sink>
bool stream_snapshot_payload(const NodeSections& nodes, const util::FlatSet* edges,
                             const SnapshotHeader& header,
                             const SnapshotEngineExt* ext,
                             const EngineStateView* state, Sink& w) {
  bool ok = true;
  // The extension header is part of the checksummed payload, so it streams
  // through the writer like any section (never patched afterwards).
  if (state != nullptr) ok = w.write(ext, sizeof(*ext));
  ok = ok && w.write(nodes.alive.data(), nodes.alive.size()) && w.align8();
  std::uint64_t running = 0;
  for (std::size_t v = 0; ok && v < nodes.neighbors.size(); ++v) {
    ok = w.write(&running, 8);
    running += nodes.neighbors[v].size();
  }
  ok = ok && w.write(&running, 8) && w.align8();
  for (std::size_t v = 0; ok && v < nodes.neighbors.size(); ++v)
    ok = w.write(nodes.neighbors[v].data(), nodes.neighbors[v].size_bytes());
  ok = ok && w.align8();
  if (edges != nullptr) {
    ok = ok && w.write(edges->raw_ctrl().data(), edges->raw_ctrl().size()) && w.align8();
    ok = ok && w.write(edges->raw_keys().data(), edges->raw_keys().size_bytes()) &&
         w.align8();
  }
  if (state != nullptr) {
    // Zero-pad short spans to id_bound: a trailing id without an entry is a
    // dead id that never drew a priority (see EngineStateView).
    static constexpr std::uint64_t zero_key = 0;
    ok = ok && w.write(state->keys.data(), state->keys.size_bytes());
    for (std::size_t v = state->keys.size(); ok && v < header.id_bound; ++v)
      ok = w.write(&zero_key, 8);
    ok = ok && w.align8();
    ok = ok && w.write(state->membership.data(), state->membership.size());
    static constexpr std::uint8_t zero_member = 0;
    for (std::size_t v = state->membership.size(); ok && v < header.id_bound; ++v)
      ok = w.write(&zero_member, 1);
    ok = ok && w.align8();
  }
  return ok;
}

}  // namespace

bool save_snapshot(const DynamicGraph& g, const std::string& path, std::string* error) {
  // The frozen v1 layout stores an edge table: a materialized graph's own,
  // referenced with no copy, or — a borrowed graph holds only deltas over
  // its base CSR — one built from its edges.
  util::FlatSet built;
  if (g.borrowed()) {
    built.reserve(g.edge_count());
    g.for_each_edge([&built](NodeId u, NodeId v) { (void)built.insert(edge_key(u, v)); });
  }
  const util::FlatSet* edges = g.borrowed() ? &built : &g.edge_set();
  SnapshotHeader header{};
  layout_snapshot(g, edges, nullptr, &header, nullptr);
  const NodeSections nodes(g);
  return util::save_staged(
      path, header,
      [&](auto& w) {
        return stream_snapshot_payload(nodes, edges, header, nullptr, nullptr, w);
      },
      {}, error);
}

SnapshotImage capture_snapshot(const DynamicGraph& g, const EngineStateView& state) {
  SnapshotHeader header{};
  SnapshotEngineExt ext{};
  layout_snapshot(g, nullptr, &state, &header, &ext);
  const NodeSections nodes(g);
  return util::capture_staged(header, [&](auto& w) {
    return stream_snapshot_payload(nodes, nullptr, header, &ext, &state, w);
  });
}

DynamicGraph DynamicGraph::load(const Snapshot& snapshot) {
  DMIS_ASSERT_MSG(snapshot.is_open(), "load from a closed snapshot");
  DynamicGraph g;
  const NodeId bound = snapshot.id_bound();
  g.adjacency_.reserve(bound);
  g.overflow_.resize(bound);
  g.node_count_ = snapshot.node_count();
  // Raw-pointer walk of the mapped arrays (open() already bounds-checked
  // them). Records are assembled in a stack-resident cache line and pushed
  // once — resize() + patch would zero all 64 MB/million nodes first and
  // then rewrite most of it. A v4 file stores no edge table, so the same
  // walk hashes each edge once, from its lower endpoint's list.
  const std::uint64_t* offs = snapshot.csr_offsets().data();
  const NodeId* nbrs = snapshot.csr_neighbors().data();
  const std::uint8_t* alive = snapshot.alive_bytes().data();
  const bool rebuild = !snapshot.has_edge_table();
  if (rebuild) g.edges_.reserve(static_cast<std::size_t>(snapshot.edge_count()));
  for (NodeId v = 0; v < bound; ++v) {
    AdjRecord rec;
    const std::uint64_t begin = offs[v];
    const auto deg = static_cast<std::uint32_t>(offs[v + 1] - begin);
    rec.alive = alive[v];
    rec.size = deg;
    if (deg > kInlineNeighbors) {
      rec.spilled = 1;
      g.overflow_[v].assign(nbrs + begin, nbrs + begin + deg);
    } else if (deg > 0) {
      std::memcpy(rec.inline_slots, nbrs + begin, deg * sizeof(NodeId));
    }
    g.adjacency_.push_back(rec);
    if (rebuild)
      for (std::uint64_t i = begin; i < begin + deg; ++i)
        if (v < nbrs[i]) (void)g.edges_.insert(edge_key(v, nbrs[i]));
  }
  g.bound_ = bound;
  if (!rebuild) {
    const bool restored = g.edges_.restore(
        snapshot.edge_ctrl(), snapshot.edge_keys(),
        static_cast<std::size_t>(snapshot.edge_count()),
        static_cast<std::size_t>(snapshot.edge_occupied()));
    DMIS_ASSERT_MSG(restored, "snapshot edge table fails validation");
  }
  return g;
}

DynamicGraph DynamicGraph::borrow(std::shared_ptr<const Snapshot> snapshot) {
  DMIS_ASSERT_MSG(snapshot != nullptr && snapshot->is_open(),
                  "borrow from a closed snapshot");
  DynamicGraph g;
  g.base_ = std::move(snapshot);
  const Snapshot& s = *g.base_;
  g.base_alive_ = s.alive_bytes().data();
  g.base_offs_ = s.csr_offsets().data();
  g.base_nbrs_ = s.csr_neighbors().data();
  g.base_bound_ = s.id_bound();
  g.bound_ = s.id_bound();
  g.base_edge_count_ = s.edge_count();
  g.node_count_ = s.node_count();
  if (!s.deep_validated() && g.base_bound_ > 0) {
    // Shallow-opened base: arm the lazy per-node CSR guards (one bit per
    // node, value-initialized to "unchecked"). Deep-validated bases skip
    // the bitmap entirely — check_base_node is then a single null test.
    const std::size_t words = (static_cast<std::size_t>(g.base_bound_) + 63) / 64;
    g.base_checked_.reset(new std::atomic<std::uint64_t>[words]());
  }
  return g;
}

void DynamicGraph::node_sections(std::span<std::uint8_t> alive,
                                 std::span<std::span<const NodeId>> neighbors) const {
  DMIS_ASSERT(alive.size() == bound_ && neighbors.size() == bound_);
  if (!borrowed()) {
    for (NodeId v = 0; v < bound_; ++v) {
      alive[v] = adjacency_[v].alive;
      if (alive[v] != 0) neighbors[v] = record_span(v);
    }
    return;
  }
  for (NodeId v = 0; v < base_bound_; ++v) {
    alive[v] = base_alive_[v];
    if (alive[v] == 0) continue;
    check_base_node(v);
    const std::uint64_t begin = base_offs_[v];
    neighbors[v] = {base_nbrs_ + begin, static_cast<std::size_t>(base_offs_[v + 1] - begin)};
  }
  dirty_.for_each([&](std::uint64_t v, std::uint64_t slot) {
    alive[v] = adjacency_[static_cast<std::size_t>(slot)].alive;
    neighbors[v] = alive[v] != 0 ? record_span(static_cast<std::size_t>(slot))
                                 : std::span<const NodeId>{};
  });
}

bool DynamicGraph::save(const std::string& path, std::string* error) const {
  return save_snapshot(*this, path, error);
}

}  // namespace dmis::graph
