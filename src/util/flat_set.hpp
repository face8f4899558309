// FlatSet — an open-addressing hash set of 64-bit keys with SIMD group
// probing (Swiss-table style).
//
// The update hot path (DynamicGraph's edge set, queried and mutated on every
// topology change) needs a set that is cache-friendly and allocation-free in
// steady state. std::unordered_set allocates one node per element and chases
// a pointer per probe; FlatSet keeps keys in a single flat array with a
// parallel one-byte control array, and probes the control array sixteen
// slots at a time: each control byte is either kEmpty, kTombstone, or the
// low 7 bits of the key's hash (h2), so one 16-byte vector compare finds
// every candidate slot in a group with a single instruction. A lookup is a
// hash, one (usually) group load, a compare-and-movemask, and at most a
// couple of key confirmations. SSE2 on x86, NEON on arm; a portable scalar
// loop behind -DDMIS_FLATSET_NO_SIMD keeps non-SIMD builds (and the CI leg
// that pins the fallback) honest.
//
// Probing is group-linear: groups of 16 slots are scanned in sequence
// starting from the key's home group, wrapping at the table end. A key is
// provably absent at the first group containing an empty slot (insertions
// never skip past an empty slot except via tombstones, which the probe does
// not stop at).
//
// Deletions leave tombstones, and insertions reuse the first tombstone on
// their probe path, so a delete/insert toggle of the same key touches the
// same slot forever and performs no allocation. The table rehashes only when
// occupied slots (full + tombstones) exceed 7/8 of capacity: it doubles if
// the live load is high, or rebuilds at the same capacity to purge
// tombstones otherwise. With reserve() sized to the working set, steady-state
// churn never rehashes.
//
// Invariant: occupied (full + tombstone) slots never exceed 7/8 of capacity,
// so every probe chain terminates at a group with an empty slot.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "util/assert.hpp"

#if !defined(DMIS_FLATSET_NO_SIMD) && (defined(__SSE2__) || defined(_M_X64))
#define DMIS_FLATSET_SSE2 1
#include <emmintrin.h>
#elif !defined(DMIS_FLATSET_NO_SIMD) && defined(__ARM_NEON)
#define DMIS_FLATSET_NEON 1
#include <arm_neon.h>
#endif

namespace dmis::util {

class FlatSet {
 public:
  FlatSet() = default;

  /// Pre-size so `expected` keys fit without rehashing.
  explicit FlatSet(std::size_t expected) { reserve(expected); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Number of slots (power of two, multiple of 16; 0 before the first
  /// insert/reserve).
  [[nodiscard]] std::size_t capacity() const noexcept { return keys_.size(); }

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    if (keys_.empty()) return false;
    const std::uint64_t h = mix(key);
    const std::uint8_t h2 = to_h2(h);
    for (std::size_t g = home_group(h);; g = (g + 1) & group_mask_) {
      const std::uint8_t* ctrl = ctrl_.data() + g * kGroupSize;
      for (std::uint64_t m = match(ctrl, h2); m != 0; m &= m - 1) {
        const std::size_t i = g * kGroupSize + slot_of(m);
        if (keys_[i] == key) return true;
      }
      if (match(ctrl, kEmpty) != 0) return false;
    }
  }

  /// Insert `key`; returns false if it was already present.
  bool insert(std::uint64_t key) {
    if (occupied_ + 1 > capacity() - capacity() / 8) grow();
    const std::uint64_t h = mix(key);
    const std::uint8_t h2 = to_h2(h);
    std::size_t target = kNone;  // first tombstone on the probe path
    for (std::size_t g = home_group(h);; g = (g + 1) & group_mask_) {
      const std::uint8_t* ctrl = ctrl_.data() + g * kGroupSize;
      for (std::uint64_t m = match(ctrl, h2); m != 0; m &= m - 1) {
        const std::size_t i = g * kGroupSize + slot_of(m);
        if (keys_[i] == key) return false;
      }
      if (target == kNone) {
        const std::uint64_t tombs = match(ctrl, kTombstone);
        if (tombs != 0) target = g * kGroupSize + slot_of(tombs);
      }
      const std::uint64_t empties = match(ctrl, kEmpty);
      if (empties != 0) {
        // Key is absent. Land on the earliest tombstone seen, else here.
        if (target == kNone) {
          target = g * kGroupSize + slot_of(empties);
          ++occupied_;
        }
        ctrl_[target] = h2;
        keys_[target] = key;
        ++size_;
        return true;
      }
    }
  }

  /// Erase `key`; returns false if it was absent. Leaves a tombstone.
  bool erase(std::uint64_t key) noexcept {
    if (keys_.empty()) return false;
    const std::uint64_t h = mix(key);
    const std::uint8_t h2 = to_h2(h);
    for (std::size_t g = home_group(h);; g = (g + 1) & group_mask_) {
      const std::uint8_t* ctrl = ctrl_.data() + g * kGroupSize;
      for (std::uint64_t m = match(ctrl, h2); m != 0; m &= m - 1) {
        const std::size_t i = g * kGroupSize + slot_of(m);
        if (keys_[i] == key) {
          ctrl_[i] = kTombstone;
          --size_;
          return true;
        }
      }
      if (match(ctrl, kEmpty) != 0) return false;
    }
  }

  /// Remove every key; capacity (and thus steady-state behavior) is kept.
  void clear() noexcept {
    std::fill(ctrl_.begin(), ctrl_.end(), kEmpty);
    size_ = 0;
    occupied_ = 0;
  }

  /// Ensure `expected` keys fit without any further allocation.
  void reserve(std::size_t expected) {
    std::size_t want = kGroupSize;
    // Capacity so that expected stays below the 7/8 occupancy ceiling.
    while (want - want / 8 <= expected) want <<= 1;
    if (want > capacity()) rehash(want);
  }

  /// Visit every key (unspecified order). Do not mutate during the walk.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < keys_.size(); ++i)
      if (is_full(ctrl_[i])) f(keys_[i]);
  }

  /// Uniformly random member key, via rejection sampling over slots (each
  /// round is uniform over all slots, so acceptance is uniform over full
  /// slots). `rng` must provide below(bound). Expected rounds = capacity /
  /// size ≤ 16 at the minimum post-rehash load; the bounded loop falls back
  /// to a linear scan from a random slot only in degenerate near-empty
  /// tables (that fallback is the one non-uniform path, and only ever
  /// triggers when size ≪ capacity). Returns false iff empty. O(1) expected
  /// — workload generators sample edges every op, so no edges() vector.
  template <typename RngT>
  [[nodiscard]] bool sample(RngT& rng, std::uint64_t& key_out) const {
    if (size_ == 0) return false;
    for (int attempt = 0; attempt < 256; ++attempt) {
      const std::size_t i =
          static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(capacity())));
      if (is_full(ctrl_[i])) {
        key_out = keys_[i];
        return true;
      }
    }
    const std::size_t start =
        static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(capacity())));
    for (std::size_t step = 0; step < capacity(); ++step) {
      const std::size_t i = (start + step) & (capacity() - 1);
      if (is_full(ctrl_[i])) {
        key_out = keys_[i];
        return true;
      }
    }
    return false;  // unreachable: size_ > 0
  }

  // --- verbatim (de)serialization, used by snapshot versions 1–3 ---
  // The table layout is a pure function of its control/key arrays, so those
  // snapshot versions store both verbatim and restore() adopts them with no
  // rehashing: loading a million-edge table is two memcpys, not a million
  // hashed inserts. raw_ctrl()/raw_keys() expose the arrays for the v1
  // writer.

  [[nodiscard]] std::span<const std::uint8_t> raw_ctrl() const noexcept { return ctrl_; }
  [[nodiscard]] std::span<const std::uint64_t> raw_keys() const noexcept { return keys_; }
  /// Full + tombstone slots (the 7/8 occupancy invariant's left-hand side).
  [[nodiscard]] std::size_t occupied() const noexcept { return occupied_; }

  /// Validate a serialized control array without adopting it: capacity
  /// shape (0, or a power of two >= kGroupSize), the 7/8 occupancy ceiling
  /// probe termination depends on, and the control-byte classification
  /// counts against `expected_size` / `expected_occupied` — one
  /// vectorizable pass. This is everything restore() requires of the ctrl
  /// side; graph::Snapshot::open() calls it so a snapshot it accepts can
  /// never fail restore() later. Whether the keys are the *right* keys is
  /// a consistency question the caller owns (graph::Snapshot::verify()
  /// checks every adjacency pair against the adopted table, and the payload
  /// checksum).
  [[nodiscard]] static bool validate_table_shape(std::span<const std::uint8_t> ctrl,
                                                 std::size_t expected_size,
                                                 std::size_t expected_occupied) noexcept {
    const std::size_t cap = ctrl.size();
    if (cap == 0) return expected_size == 0 && expected_occupied == 0;
    if (cap < kGroupSize || (cap & (cap - 1)) != 0) return false;
    if (expected_occupied > cap - cap / 8) return false;
    // SWAR, eight control bytes per u64 (cap is a multiple of kGroupSize,
    // so whole words always): this scan sits on the snapshot-load hot path
    // twice (Snapshot::open + restore), and a byte-wise three-counter loop
    // costs ~15 ms per scan on an 8M-slot table vs ~2 ms here. For each
    // word: full slots have the high bit clear; among high-bit-set slots
    // only kEmpty and kTombstone are legal, matched with the classic
    // XOR + zero-byte detect.
    std::size_t full = 0;
    std::size_t tombs = 0;
    std::size_t not_full = 0;
    std::size_t legal_sentinels = 0;
    constexpr std::uint64_t kHi = 0x8080808080808080ULL;
    constexpr std::uint64_t kLo = 0x0101010101010101ULL;
    constexpr std::uint64_t kLow7 = ~kHi;
    // Exact per-byte equality count: XOR makes matching bytes zero, then
    // the carry-free zero-byte detect ((x & 0x7f..) + 0x7f.. never carries
    // across bytes, unlike the (x - kLo) variant whose borrows can
    // misclassify a byte adjacent to a match).
    const auto count_matches = [&](std::uint64_t word, std::uint8_t needle) {
      const std::uint64_t x = word ^ (kLo * needle);
      const std::uint64_t nonzero_low = (x & kLow7) + kLow7;  // high bit: low7 != 0
      return static_cast<std::size_t>(
          std::popcount(~(nonzero_low | x | kLow7) & kHi));
    };
    for (std::size_t i = 0; i < cap; i += 8) {
      std::uint64_t word;
      std::memcpy(&word, ctrl.data() + i, 8);
      const std::size_t high = static_cast<std::size_t>(std::popcount(word & kHi));
      full += 8 - high;
      not_full += high;
      const std::size_t t = count_matches(word, kTombstone);
      tombs += t;
      legal_sentinels += t + count_matches(word, kEmpty);
    }
    return legal_sentinels == not_full && full == expected_size &&
           full + tombs == expected_occupied;
  }

  /// Adopt a serialized table. `ctrl`/`keys` must be a capacity-sized pair
  /// as produced by raw_ctrl()/raw_keys(); validated with
  /// validate_table_shape(), and a table failing it is rejected (returns
  /// false, *this untouched) rather than adopted into an infinite probe
  /// loop.
  bool restore(std::span<const std::uint8_t> ctrl, std::span<const std::uint64_t> keys,
               std::size_t expected_size, std::size_t expected_occupied) {
    if (ctrl.size() != keys.size() ||
        !validate_table_shape(ctrl, expected_size, expected_occupied))
      return false;
    if (ctrl.empty()) {
      keys_.clear();
      ctrl_.clear();
      size_ = 0;
      occupied_ = 0;
      group_mask_ = 0;
      return true;
    }
    keys_.assign(keys.begin(), keys.end());
    ctrl_.assign(ctrl.begin(), ctrl.end());
    size_ = expected_size;  // == counted full slots (validate_table_shape)
    occupied_ = expected_occupied;
    group_mask_ = ctrl.size() / kGroupSize - 1;
    return true;
  }

 private:
  static constexpr std::size_t kGroupSize = 16;
  // Sentinels have the high bit set; full slots store h2 ∈ [0, 128).
  static constexpr std::uint8_t kEmpty = 0x80;
  static constexpr std::uint8_t kTombstone = 0xFE;
  static constexpr std::size_t kNone = ~static_cast<std::size_t>(0);

  [[nodiscard]] static constexpr bool is_full(std::uint8_t c) noexcept {
    return (c & 0x80U) == 0;
  }

  /// splitmix64 finalizer — full-avalanche mix so edge keys (which pack two
  /// small node ids) spread over both the group index and h2.
  [[nodiscard]] static constexpr std::uint64_t mix(std::uint64_t x) noexcept {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  [[nodiscard]] static constexpr std::uint8_t to_h2(std::uint64_t h) noexcept {
    return static_cast<std::uint8_t>(h & 0x7FU);
  }

  [[nodiscard]] std::size_t home_group(std::uint64_t h) const noexcept {
    return static_cast<std::size_t>(h >> 7) & group_mask_;
  }

  // match() returns a bitmask of the slots in the 16-byte control group
  // whose byte equals `needle`; slot_of() maps the lowest set bit back to a
  // slot index. `m &= m - 1` advances to the next candidate. On SSE2 the
  // mask is one bit per slot; on NEON it is one nibble per slot narrowed to
  // one bit; the scalar fallback mirrors the SSE2 shape.
#if defined(DMIS_FLATSET_SSE2)
  [[nodiscard]] static std::uint64_t match(const std::uint8_t* ctrl,
                                           std::uint8_t needle) noexcept {
    const __m128i group = _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    const __m128i eq = _mm_cmpeq_epi8(group, _mm_set1_epi8(static_cast<char>(needle)));
    return static_cast<std::uint64_t>(
        static_cast<unsigned>(_mm_movemask_epi8(eq)));
  }
  [[nodiscard]] static std::size_t slot_of(std::uint64_t m) noexcept {
    return static_cast<std::size_t>(std::countr_zero(m));
  }
#elif defined(DMIS_FLATSET_NEON)
  [[nodiscard]] static std::uint64_t match(const std::uint8_t* ctrl,
                                           std::uint8_t needle) noexcept {
    const uint8x16_t group = vld1q_u8(ctrl);
    const uint8x16_t eq = vceqq_u8(group, vdupq_n_u8(needle));
    // Narrow each 8-bit lane to 4 bits, then keep one bit per slot.
    const uint8x8_t narrowed = vshrn_n_u16(vreinterpretq_u16_u8(eq), 4);
    const std::uint64_t nibbles = vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
    return nibbles & 0x1111111111111111ULL;
  }
  [[nodiscard]] static std::size_t slot_of(std::uint64_t m) noexcept {
    return static_cast<std::size_t>(std::countr_zero(m)) / 4;
  }
#else
  [[nodiscard]] static std::uint64_t match(const std::uint8_t* ctrl,
                                           std::uint8_t needle) noexcept {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < kGroupSize; ++i)
      m |= static_cast<std::uint64_t>(ctrl[i] == needle) << i;
    return m;
  }
  [[nodiscard]] static std::size_t slot_of(std::uint64_t m) noexcept {
    return static_cast<std::size_t>(std::countr_zero(m));
  }
#endif

  void grow() {
    if (keys_.empty()) {
      rehash(kGroupSize);
    } else if (size_ >= capacity() / 2) {
      rehash(capacity() * 2);  // genuinely full — double
    } else {
      rehash(capacity());  // mostly tombstones — purge in place
    }
  }

  void rehash(std::size_t new_capacity) {
    DMIS_ASSERT((new_capacity & (new_capacity - 1)) == 0 &&
                new_capacity >= kGroupSize);
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    keys_.assign(new_capacity, 0);
    ctrl_.assign(new_capacity, kEmpty);
    group_mask_ = new_capacity / kGroupSize - 1;
    occupied_ = size_;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (!is_full(old_ctrl[i])) continue;
      const std::uint64_t key = old_keys[i];
      const std::uint64_t h = mix(key);
      for (std::size_t g = home_group(h);; g = (g + 1) & group_mask_) {
        const std::uint64_t empties = match(ctrl_.data() + g * kGroupSize, kEmpty);
        if (empties != 0) {
          const std::size_t j = g * kGroupSize + slot_of(empties);
          ctrl_[j] = to_h2(h);
          keys_[j] = key;
          break;
        }
      }
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint8_t> ctrl_;
  std::size_t size_ = 0;       // full slots
  std::size_t occupied_ = 0;   // full + tombstone slots
  std::size_t group_mask_ = 0; // group count − 1
};

}  // namespace dmis::util
