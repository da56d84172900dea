// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// The simulator's one open-addressing hash table, keyed by uint64. Its users
// are the LLB's line index (src/asf/llb.h) and the L1 TLB's page index
// (src/mem/tlb.h). Each is a host-only lookup index: no simulated result
// depends on its slot layout.
//
// Layout: a flat key array and a parallel value array, linear probing,
// power-of-two capacity, Fibonacci hashing to spread the low-entropy
// line/page numbers the simulator uses as keys. Probes scan only the 8-byte
// keys and touch one value on a hit. Deletion uses backward shifting instead
// of tombstones, so probe chains never grow stale and lookup cost stays a
// short linear scan over one or two cache lines.
//
// Constraint: the key value ~0ull is reserved as the empty-slot sentinel.
// All keys in this codebase are host-derived line numbers (addr >> 6) or
// page numbers (addr >> 12), which can never be all-ones.
#ifndef SRC_COMMON_FLAT_TABLE_H_
#define SRC_COMMON_FLAT_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/defs.h"

namespace asfcommon {

namespace flat_internal {

constexpr uint64_t kEmptyKey = ~0ull;

// Fibonacci multiplier (2^64 / golden ratio); odd, so multiplication is a
// bijection and the high bits mix all input bits.
constexpr uint64_t kFibMul = 0x9E3779B97F4A7C15ull;

}  // namespace flat_internal

// Flat open-addressing map from uint64 keys to V. V must be cheaply
// default-constructible and movable; a new key's value starts as V{}.
template <typename V>
class FlatMap64 {
 public:
  explicit FlatMap64(size_t initial_capacity = 64) { Rehash(initial_capacity); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return keys_.size(); }

  bool Contains(uint64_t key) const { return FindSlot(key) != kNotFound; }

  V* Find(uint64_t key) {
    size_t s = FindSlot(key);
    return s == kNotFound ? nullptr : &values_[s];
  }
  const V* Find(uint64_t key) const {
    size_t s = FindSlot(key);
    return s == kNotFound ? nullptr : &values_[s];
  }

  // Returns the value for `key`, default-constructing it on first use, and
  // whether this call inserted it.
  std::pair<V*, bool> TryEmplace(uint64_t key) {
    ASF_CHECK(key != flat_internal::kEmptyKey);
    size_t s = ProbeFor(key);
    if (keys_[s] == key) {
      return {&values_[s], false};
    }
    if (NeedsGrowth()) {
      Rehash(keys_.size() * 2);
      s = ProbeFor(key);
    }
    keys_[s] = key;
    values_[s] = V{};
    ++size_;
    return {&values_[s], true};
  }

  V& operator[](uint64_t key) { return *TryEmplace(key).first; }

  // Removes `key` if present (backward-shift deletion). Returns true if a
  // mapping was removed.
  bool Erase(uint64_t key) {
    size_t i = FindSlot(key);
    if (i == kNotFound) {
      return false;
    }
    const size_t mask = keys_.size() - 1;
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (keys_[j] == flat_internal::kEmptyKey) {
        break;
      }
      // Shift slot j into the hole at i only if its probe chain starts at or
      // before i (cyclically): home..j must span the hole.
      size_t home = HomeOf(keys_[j]);
      if (((j - home) & mask) >= ((j - i) & mask)) {
        keys_[i] = keys_[j];
        values_[i] = std::move(values_[j]);
        i = j;
      }
    }
    keys_[i] = flat_internal::kEmptyKey;
    --size_;
    return true;
  }

  // Wipes the key array only. An empty table returns at once: the arrays
  // never shrink, and a table that is cleared on every commit and abort
  // often holds nothing.
  void Clear() {
    if (size_ == 0) {
      return;
    }
    std::fill(keys_.begin(), keys_.end(), flat_internal::kEmptyKey);
    size_ = 0;
  }

 private:
  static constexpr size_t kNotFound = ~size_t{0};

  size_t HomeOf(uint64_t key) const {
    return static_cast<size_t>((key * flat_internal::kFibMul) >> shift_);
  }

  // First slot holding `key`, or the empty slot that terminates its chain.
  size_t ProbeFor(uint64_t key) const {
    const size_t mask = keys_.size() - 1;
    size_t s = HomeOf(key);
    while (keys_[s] != key && keys_[s] != flat_internal::kEmptyKey) {
      s = (s + 1) & mask;
    }
    return s;
  }

  size_t FindSlot(uint64_t key) const {
    size_t s = ProbeFor(key);
    return keys_[s] == key ? s : kNotFound;
  }

  // Grow at 7/8 load: probes stay short and growth stays rare.
  bool NeedsGrowth() const { return size_ >= grow_at_; }

  void Rehash(size_t new_capacity) {
    new_capacity = std::bit_ceil(std::max<size_t>(new_capacity, 8));
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(new_capacity, flat_internal::kEmptyKey);
    values_.assign(new_capacity, V{});
    shift_ = 64 - static_cast<uint32_t>(std::countr_zero(new_capacity));
    grow_at_ = new_capacity / 8 * 7;
    for (size_t s = 0; s < old_keys.size(); ++s) {
      if (old_keys[s] != flat_internal::kEmptyKey) {
        size_t dst = ProbeFor(old_keys[s]);
        keys_[dst] = old_keys[s];
        values_[dst] = std::move(old_values[s]);
      }
    }
  }

  // Parallel arrays: probes scan only the keys.
  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  size_t size_ = 0;
  size_t grow_at_ = 0;  // 7/8 of the capacity.
  uint32_t shift_ = 64;
};

}  // namespace asfcommon

#endif  // SRC_COMMON_FLAT_TABLE_H_
