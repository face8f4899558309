#include "workload/batched.hpp"

#include <algorithm>

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

}  // namespace dmis::workload
