// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Two-level data-TLB model (paper Sec. 5: 48-entry fully associative L1,
// 512-entry 4-way L2; misses walk the page table but — unlike Sun's Rock —
// do NOT abort ASF speculative regions, a point the paper emphasizes).
#ifndef SRC_MEM_TLB_H_
#define SRC_MEM_TLB_H_

#include <cstdint>
#include <vector>

#include "src/common/flat_table.h"
#include "src/mem/cache.h"

namespace asfmem {

struct TlbParams {
  uint32_t l1_entries = 48;
  uint32_t l2_entries = 512;
  uint32_t l2_ways = 4;
  uint64_t l2_hit_cycles = 4;
  uint64_t walk_cycles = 35;
};

// Fully associative set of pages with exact LRU replacement, in O(1) per
// operation: a FlatMap64 index (src/common/flat_table.h) maps a page to its
// entry, and the entries form a doubly linked recency list. Pages are never
// invalidated, so this picks exactly the victims of a one-set LRU Cache with
// as many ways, without scanning them.
class LruPageSet {
 public:
  explicit LruPageSet(uint32_t capacity);

  // True if `page` is present; promotes it to most recently used.
  bool Touch(uint64_t page);

  // Adds an absent `page` as most recently used, evicting the least
  // recently used page when the set is full.
  void Insert(uint64_t page);

 private:
  struct Entry {
    uint64_t page = 0;
    uint32_t prev = kNil;  // Towards the most recently used end.
    uint32_t next = kNil;  // Towards the least recently used end.
  };
  static constexpr uint32_t kNil = ~0u;

  void Unlink(uint32_t e);
  void PushFront(uint32_t e);

  std::vector<Entry> entries_;            // Capacity-many once full.
  asfcommon::FlatMap64<uint32_t> index_;  // Page -> entry; at most 1/4 full.
  uint32_t capacity_;
  uint32_t head_ = kNil;  // Most recently used.
  uint32_t tail_ = kNil;  // Least recently used.
};

// Per-core D-TLB. Returns the extra cycles an address translation costs.
class Tlb {
 public:
  explicit Tlb(const TlbParams& params)
      : params_(params),
        l1_(params.l1_entries),
        l2_(CacheGeometry{params.l2_entries * asfcommon::kCacheLineBytes, params.l2_ways}) {}

  // Translates the page containing `addr`; fills both levels on miss.
  // Returns the added latency (0 on L1 hit).
  uint64_t Translate(uint64_t addr) {
    uint64_t page = addr >> asfcommon::kPageShift;
    if (l1_.Touch(page)) {
      return 0;
    }
    l1_.Insert(page);
    if (l2_.TouchOrInsert(page)) {
      return params_.l2_hit_cycles;
    }
    ++walks_;
    return params_.l2_hit_cycles + params_.walk_cycles;
  }

  uint64_t walks() const { return walks_; }

 private:
  const TlbParams params_;
  LruPageSet l1_;
  Cache l2_;
  uint64_t walks_ = 0;
};

}  // namespace asfmem

#endif  // SRC_MEM_TLB_H_
