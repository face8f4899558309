#include "workload/batched.hpp"

#include <algorithm>
#include <utility>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dmis::workload {

void append_op(core::Batch& batch, const OpView& op) {
  batch.append(batch_kind(op.kind), op.u, op.v, op.neighbors);
}

std::vector<core::Batch> chunk_trace(const Trace& trace, std::size_t batch_size) {
  DMIS_ASSERT_MSG(batch_size > 0, "batch size must be positive");
  std::vector<core::Batch> batches;
  batches.reserve((trace.size() + batch_size - 1) / batch_size);
  for (std::size_t i = 0; i < trace.size(); i += batch_size) {
    core::Batch batch;
    const std::size_t end = std::min(trace.size(), i + batch_size);
    batch.reserve(end - i);
    for (std::size_t j = i; j < end; ++j) append_op(batch, trace[j]);
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::vector<core::Batch> churn_batches(TraceGenerator& generator,
                                       std::size_t count, std::size_t batch_size) {
  DMIS_ASSERT_MSG(batch_size > 0, "batch size must be positive");
  std::vector<core::Batch> batches;
  batches.reserve(count);
  for (std::size_t b = 0; b < count; ++b) {
    core::Batch batch;
    batch.reserve(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i)
      append_op(batch, generator.next());
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::vector<core::Batch> drill_stream(graph::NodeId n, double avg_degree,
                                      std::uint64_t seed, std::uint64_t total_ops,
                                      std::size_t batch_size) {
  DMIS_ASSERT_MSG(batch_size > 0, "batch size must be positive");
  util::Rng rng(seed);
  graph::DynamicGraph g = graph::random_avg_degree(n, avg_degree, rng);
  const Trace grow = grow_trace(g);
  ChurnConfig config;
  config.p_abrupt = 0.4;
  ChurnGenerator churn(std::move(g), config, seed + 1);

  std::vector<core::Batch> out;
  const auto append = [&](const OpView& op) {
    if (out.empty() || out.back().size() == batch_size) out.emplace_back();
    append_op(out.back(), op);
  };
  for (const GraphOp& op : grow) append(op);
  for (std::uint64_t ops = grow.size(); ops < total_ops; ++ops) append(churn.next());
  return out;
}

std::vector<core::Batch> slice(const std::vector<core::Batch>& stream,
                               std::uint64_t from, std::uint64_t to) {
  std::vector<core::Batch> out;
  std::uint64_t start = 0;  // stream offset of the batch's first op
  for (const core::Batch& batch : stream) {
    const std::uint64_t end = start + batch.size();
    const std::uint64_t lo = std::max(from, start);
    const std::uint64_t hi = std::min(to, end);
    if (lo == start && hi == end) {
      out.push_back(batch);
    } else if (lo < hi) {
      core::Batch& part = out.emplace_back();
      const auto ops = batch.ops();
      for (std::uint64_t i = lo; i < hi; ++i) {
        const core::BatchOp& op = ops[i - start];
        part.append(op.kind, op.u, op.v, batch.neighbors_of(op));
      }
    }
    start = end;
  }
  return out;
}

}  // namespace dmis::workload
