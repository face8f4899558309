// Batched traces: carve a topology-change trace into core::Batch groups so
// the batch path (core::apply_batch, the one MisService runs) can be driven
// by the same workload generators as the per-change engines.
//
// Node ids stay positional: a trace's k-th add-node op creates the engine's
// k-th fresh id, and apply_batch assigns ids in op order, so chunking a
// trace into batches and replaying the batches reaches exactly the graph
// the unchunked trace builds. The communication-layer distinctions the
// sequential engines ignore (graceful vs abrupt deletion, unmute vs insert)
// collapse the same way they do in workload::apply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/batch.hpp"
#include "graph/dynamic_graph.hpp"
#include "workload/churn.hpp"
#include "workload/trace.hpp"

namespace dmis::workload {

/// Append `op` — a GraphOp or a TraceFile record — to `batch`
/// (graceful/abrupt and add/unmute collapse, as batch_kind() says).
void append_op(core::Batch& batch, const OpView& op);

/// Split `trace` into consecutive batches of at most `batch_size` ops.
[[nodiscard]] std::vector<core::Batch> chunk_trace(const Trace& trace,
                                                   std::size_t batch_size);

/// Generate `count` batches of exactly `batch_size` valid churn ops each
/// (the generator's internal graph evolves op by op, so every op in a batch
/// is valid at its position — the contract apply_batch checks).
[[nodiscard]] std::vector<core::Batch> churn_batches(TraceGenerator& generator,
                                                     std::size_t count,
                                                     std::size_t batch_size);

/// The pinned drill stream: a random_avg_degree(n, avg_degree) graph (Rng
/// seeded with `seed`) grown op by op from empty, then ChurnGenerator churn
/// (p_abrupt 0.4, seed + 1) until the stream holds `total_ops` ops, cut
/// every `batch_size` ops. The grow prefix always runs whole. The crash and
/// failover drills, the service suites and the recovery benches replay it,
/// so a reference engine fed the same ops from empty lines up id for id.
[[nodiscard]] std::vector<core::Batch> drill_stream(graph::NodeId n, double avg_degree,
                                                    std::uint64_t seed,
                                                    std::uint64_t total_ops,
                                                    std::size_t batch_size);

/// Ops [from, to) of `stream`, counted across batches: batch boundaries
/// inside the range are kept, and the batches holding `from` and `to` are
/// split there. `to` is clamped to the stream's op count (by default the
/// slice runs to the end); an empty range gives no batches.
[[nodiscard]] std::vector<core::Batch> slice(const std::vector<core::Batch>& stream,
                                             std::uint64_t from,
                                             std::uint64_t to = UINT64_MAX);

}  // namespace dmis::workload
