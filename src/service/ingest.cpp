#include "service/ingest.hpp"

#include <thread>

#include "util/assert.hpp"

namespace dmis::service {

IngestQueue::IngestQueue(IngestOptions options) : options_(options) {
  DMIS_ASSERT_MSG(options_.producers >= 1, "at least one producer lane");
  DMIS_ASSERT_MSG(options_.max_batch_ops >= 1, "batches need at least one op");
  lanes_ = std::make_unique<Lane[]>(options_.producers);
  for (unsigned p = 0; p < options_.producers; ++p)
    lanes_[p].ring.init(options_.ring_capacity);
}

bool IngestQueue::try_submit(unsigned producer, const ClientOp& op) {
  DMIS_ASSERT(producer < options_.producers);
  Lane& lane = lanes_[producer];
  if (!lane.ring.try_push(op)) return false;
  lane.submitted.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void IngestQueue::submit(unsigned producer, const ClientOp& op) {
  DMIS_ASSERT(producer < options_.producers);
  Lane& lane = lanes_[producer];
  while (!lane.ring.try_push(op)) {
    lane.waits.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }
  lane.submitted.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t IngestQueue::submitted(unsigned producer) const {
  DMIS_ASSERT(producer < options_.producers);
  return lanes_[producer].submitted.load(std::memory_order_relaxed);
}

std::uint64_t IngestQueue::acked(unsigned producer) const {
  DMIS_ASSERT(producer < options_.producers);
  return lanes_[producer].acked.load(std::memory_order_acquire);
}

std::uint64_t IngestQueue::backpressure_waits(unsigned producer) const {
  DMIS_ASSERT(producer < options_.producers);
  return lanes_[producer].waits.load(std::memory_order_relaxed);
}

std::size_t IngestQueue::drain(core::Batch& batch) {
  batch.clear();
  std::size_t drained = 0;
  // Sweep the lanes round-robin, one op per lane per sweep, until the batch
  // is full or a whole sweep finds every ring empty. One-op granularity
  // keeps a chatty lane from starving the others within a batch; rotating
  // the start lane keeps the sweep order fair across batches.
  bool progressed = true;
  while (drained < options_.max_batch_ops && progressed) {
    progressed = false;
    for (unsigned i = 0; i < options_.producers && drained < options_.max_batch_ops;
         ++i) {
      const unsigned p = (cursor_ + i) % options_.producers;
      Lane& lane = lanes_[p];
      ClientOp op;
      if (!lane.ring.try_pop(op)) continue;
      batch.append(op.kind, op.u, op.v, {op.nbrs, op.nbr_count});
      ++lane.pending_ack;
      ++drained;
      progressed = true;
    }
  }
  if (options_.producers > 0) cursor_ = (cursor_ + 1) % options_.producers;
  return drained;
}

void IngestQueue::ack() {
  for (unsigned p = 0; p < options_.producers; ++p) {
    Lane& lane = lanes_[p];
    if (lane.pending_ack == 0) continue;
    lane.acked.fetch_add(lane.pending_ack, std::memory_order_release);
    lane.pending_ack = 0;
  }
}

std::uint64_t IngestQueue::total_acked() const {
  std::uint64_t total = 0;
  for (unsigned p = 0; p < options_.producers; ++p)
    total += lanes_[p].acked.load(std::memory_order_acquire);
  return total;
}

}  // namespace dmis::service
