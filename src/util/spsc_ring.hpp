// SpscRing — a fixed-capacity lock-free single-producer single-consumer
// ring buffer.
//
// service::IngestQueue gives each producer lane one ring: the producer
// thread pushes client ops and the single consumer drains them. Exactly one
// thread pushes and exactly one thread pops, so the classic two-counter
// scheme suffices: the producer owns tail_, the consumer owns head_, each
// reads the other's counter with acquire and publishes its own with
// release. No CAS, no locks, no allocation after init().
//
// Capacity is a power of two fixed at init(); try_push reports failure when
// full, which IngestQueue turns into backpressure on the producer.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace dmis::util {

template <typename T>
class SpscRing {
 public:
  SpscRing() = default;
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Allocate `capacity` slots (power of two). Not thread-safe; call before
  /// the producer/consumer threads start (or between barriers).
  void init(std::size_t capacity) {
    DMIS_ASSERT_MSG(capacity > 0 && (capacity & (capacity - 1)) == 0,
                    "SpscRing capacity must be a power of two");
    buffer_.assign(capacity, T{});
    mask_ = capacity - 1;
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return buffer_.size(); }

  /// Producer side. Returns false when the ring is full.
  bool try_push(const T& value) noexcept {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_.load(std::memory_order_acquire) == buffer_.size())
      return false;
    buffer_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(T& out) noexcept {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) return false;
    out = buffer_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Snapshot emptiness. Exact only while both sides are quiescent (e.g. at
  /// a round barrier); otherwise a racy lower bound on progress.
  [[nodiscard]] bool empty() const noexcept {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  std::vector<T> buffer_;
  std::size_t mask_ = 0;
  // Producer and consumer counters on separate cache lines so the two sides
  // do not false-share.
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer cursor
};

}  // namespace dmis::util
