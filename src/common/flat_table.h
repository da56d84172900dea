// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Open-addressing hash containers keyed by uint64 for the simulator's hot
// paths (coherence directory, present-page set, L1 read-set tracking).
//
// Layout: one flat slot array, linear probing, power-of-two capacity,
// Fibonacci hashing to spread the low-entropy line/page numbers the
// simulator uses as keys. Deletion uses backward shifting instead of
// tombstones, so probe chains never grow stale and lookup cost stays a
// short linear scan over one or two cache lines.
//
// Constraint: the key value ~0ull is reserved as the empty-slot sentinel.
// All keys in this codebase are host-derived line numbers (addr >> 6) or
// page numbers (addr >> 12), which can never be all-ones.
#ifndef SRC_COMMON_FLAT_TABLE_H_
#define SRC_COMMON_FLAT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/defs.h"

namespace asfcommon {

namespace flat_internal {

constexpr uint64_t kEmptyKey = ~0ull;

// Fibonacci multiplier (2^64 / golden ratio); odd, so multiplication is a
// bijection and the high bits mix all input bits.
constexpr uint64_t kFibMul = 0x9E3779B97F4A7C15ull;

inline bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

inline size_t CeilPowerOfTwo(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace flat_internal

// Flat open-addressing map from uint64 keys to V. V must be cheaply
// default-constructible and movable; erased slots are reset to V{}.
template <typename V>
class FlatMap64 {
 public:
  explicit FlatMap64(size_t initial_capacity = 64) { Rehash(initial_capacity); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  bool Contains(uint64_t key) const { return FindSlot(key) != kNotFound; }

  V* Find(uint64_t key) {
    size_t s = FindSlot(key);
    return s == kNotFound ? nullptr : &slots_[s].value;
  }
  const V* Find(uint64_t key) const {
    size_t s = FindSlot(key);
    return s == kNotFound ? nullptr : &slots_[s].value;
  }

  // Returns the value for `key`, default-constructing it on first use.
  V& operator[](uint64_t key) {
    ASF_CHECK(key != flat_internal::kEmptyKey);
    size_t s = ProbeFor(key);
    if (slots_[s].key == key) {
      return slots_[s].value;
    }
    if (NeedsGrowth()) {
      Rehash(slots_.size() * 2);
      s = ProbeFor(key);
    }
    slots_[s].key = key;
    ++size_;
    return slots_[s].value;
  }

  // Removes `key` if present (backward-shift deletion). Returns true if a
  // mapping was removed.
  bool Erase(uint64_t key) {
    size_t i = FindSlot(key);
    if (i == kNotFound) {
      return false;
    }
    const size_t mask = slots_.size() - 1;
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (slots_[j].key == flat_internal::kEmptyKey) {
        break;
      }
      // Shift slot j into the hole at i only if its probe chain starts at or
      // before i (cyclically): home..j must span the hole.
      size_t home = HomeOf(slots_[j].key);
      if (((j - home) & mask) >= ((j - i) & mask)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i].key = flat_internal::kEmptyKey;
    slots_[i].value = V{};
    --size_;
    return true;
  }

  void Clear() {
    for (Slot& s : slots_) {
      s.key = flat_internal::kEmptyKey;
      s.value = V{};
    }
    size_ = 0;
  }

  // Visits every (key, value) pair in slot order (unspecified w.r.t.
  // insertion). Enables aggregate maintenance of packed bitmap/record values
  // — e.g. the conflict directory's per-core teardown and its coherence
  // cross-checks — without exposing the slot layout. `fn` must not mutate
  // the table (no insert/erase) while iterating.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != flat_internal::kEmptyKey) {
        fn(s.key, s.value);
      }
    }
  }

 private:
  struct Slot {
    uint64_t key = flat_internal::kEmptyKey;
    V value{};
  };
  static constexpr size_t kNotFound = ~size_t{0};

  size_t HomeOf(uint64_t key) const {
    return static_cast<size_t>((key * flat_internal::kFibMul) >> shift_);
  }

  // First slot holding `key`, or the empty slot that terminates its chain.
  size_t ProbeFor(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t s = HomeOf(key);
    while (slots_[s].key != key && slots_[s].key != flat_internal::kEmptyKey) {
      s = (s + 1) & mask;
    }
    return s;
  }

  size_t FindSlot(uint64_t key) const {
    size_t s = ProbeFor(key);
    return slots_[s].key == key ? s : kNotFound;
  }

  // Grow at 7/8 load: probes stay short and growth stays rare.
  bool NeedsGrowth() const { return (size_ + 1) * 8 > slots_.size() * 7; }

  void Rehash(size_t new_capacity) {
    new_capacity = flat_internal::CeilPowerOfTwo(new_capacity < 8 ? 8 : new_capacity);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    shift_ = 64;
    for (size_t c = new_capacity; c > 1; c >>= 1) {
      --shift_;
    }
    size_ = 0;
    for (Slot& s : old) {
      if (s.key != flat_internal::kEmptyKey) {
        size_t dst = ProbeFor(s.key);
        slots_[dst] = std::move(s);
        ++size_;
      }
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint32_t shift_ = 64;
};

// Flat open-addressing set of uint64 keys (same layout, no payload).
class FlatSet64 {
 public:
  explicit FlatSet64(size_t initial_capacity = 64) { Rehash(initial_capacity); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Contains(uint64_t key) const {
    return keys_[ProbeFor(key)] == key;
  }

  // Returns true if `key` was newly inserted.
  bool Insert(uint64_t key) {
    ASF_CHECK(key != flat_internal::kEmptyKey);
    size_t s = ProbeFor(key);
    if (keys_[s] == key) {
      return false;
    }
    if ((size_ + 1) * 8 > keys_.size() * 7) {
      Rehash(keys_.size() * 2);
      s = ProbeFor(key);
    }
    keys_[s] = key;
    ++size_;
    return true;
  }

  bool Erase(uint64_t key) {
    size_t i = ProbeFor(key);
    if (keys_[i] != key) {
      return false;
    }
    const size_t mask = keys_.size() - 1;
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (keys_[j] == flat_internal::kEmptyKey) {
        break;
      }
      size_t home = HomeOf(keys_[j]);
      if (((j - home) & mask) >= ((j - i) & mask)) {
        keys_[i] = keys_[j];
        i = j;
      }
    }
    keys_[i] = flat_internal::kEmptyKey;
    --size_;
    return true;
  }

  // An empty set returns at once: the slot array never shrinks, and a set
  // that is cleared on every commit and abort often holds nothing.
  void Clear() {
    if (size_ == 0) {
      return;
    }
    keys_.assign(keys_.size(), flat_internal::kEmptyKey);
    size_ = 0;
  }

  // Visits every key in slot order (unspecified w.r.t. insertion). `fn`
  // must not mutate the set while iterating.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (size_ == 0) {
      return;
    }
    for (uint64_t k : keys_) {
      if (k != flat_internal::kEmptyKey) {
        fn(k);
      }
    }
  }

 private:
  size_t HomeOf(uint64_t key) const {
    return static_cast<size_t>((key * flat_internal::kFibMul) >> shift_);
  }

  size_t ProbeFor(uint64_t key) const {
    const size_t mask = keys_.size() - 1;
    size_t s = HomeOf(key);
    while (keys_[s] != key && keys_[s] != flat_internal::kEmptyKey) {
      s = (s + 1) & mask;
    }
    return s;
  }

  void Rehash(size_t new_capacity) {
    new_capacity = flat_internal::CeilPowerOfTwo(new_capacity < 8 ? 8 : new_capacity);
    std::vector<uint64_t> old = std::move(keys_);
    keys_.assign(new_capacity, flat_internal::kEmptyKey);
    shift_ = 64;
    for (size_t c = new_capacity; c > 1; c >>= 1) {
      --shift_;
    }
    size_ = 0;
    for (uint64_t k : old) {
      if (k != flat_internal::kEmptyKey) {
        keys_[ProbeFor(k)] = k;
        ++size_;
      }
    }
  }

  std::vector<uint64_t> keys_;
  size_t size_ = 0;
  uint32_t shift_ = 64;
};

}  // namespace asfcommon

#endif  // SRC_COMMON_FLAT_TABLE_H_
