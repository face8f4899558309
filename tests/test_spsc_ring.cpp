// Tests for util::SpscRing, the lock-free single-producer single-consumer
// ring under each IngestQueue producer lane.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "util/spsc_ring.hpp"

namespace {

using dmis::util::SpscRing;

TEST(SpscRing, FillDrainSequential) {
  SpscRing<std::uint32_t> ring;
  ring.init(8);
  EXPECT_TRUE(ring.empty());
  for (std::uint32_t k = 0; k < 8; ++k) EXPECT_TRUE(ring.try_push(k));
  EXPECT_FALSE(ring.try_push(99)) << "ring must report full at capacity";
  std::uint32_t v = 0;
  for (std::uint32_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, k) << "FIFO order";
  }
  EXPECT_FALSE(ring.try_pop(v));
  EXPECT_TRUE(ring.empty());
  // Wrap-around: reuse after drain keeps working.
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(ring.try_push(7));
    ASSERT_TRUE(ring.try_pop(v));
  }
}

TEST(SpscRing, ConcurrentProducerConsumerStress) {
  // One producer and one consumer hammer a small ring so every head/tail
  // interleaving (full, empty, wrap) is exercised; the consumer must see
  // exactly the pushed sequence, in order. Run under TSan in CI.
  SpscRing<std::uint64_t> ring;
  ring.init(64);
  constexpr std::uint64_t kCount = 200'000;

  std::thread producer([&] {
    for (std::uint64_t k = 0; k < kCount; ++k)
      while (!ring.try_push(k * 2654435761ULL)) std::this_thread::yield();
  });

  std::uint64_t received = 0;
  bool in_order = true;
  std::uint64_t value = 0;
  while (received < kCount) {
    if (ring.try_pop(value)) {
      in_order &= value == received * 2654435761ULL;
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(in_order);
  EXPECT_EQ(received, kCount);
  EXPECT_TRUE(ring.empty());
}

}  // namespace
