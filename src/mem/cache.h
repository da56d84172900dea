// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Set-associative cache model with LRU replacement.
//
// The model tracks line presence only (the simulation reads and writes host
// memory directly); its job is timing and — for the "w/ L1" ASF variants —
// faithful associativity-induced evictions, which the paper identifies as a
// first-order cause of capacity aborts when the L1 tracks the read set
// (Sec. 5, "ASF abort reasons").
#ifndef SRC_MEM_CACHE_H_
#define SRC_MEM_CACHE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/defs.h"

namespace asfmem {

struct CacheGeometry {
  uint64_t size_bytes = 0;
  uint32_t ways = 1;

  uint64_t NumLines() const { return size_bytes / asfcommon::kCacheLineBytes; }
  uint64_t NumSets() const { return NumLines() / ways; }

  // CHECK-fails unless the geometry is realizable: whole lines, whole sets,
  // and a nonzero power-of-two set count (SetOf masks with sets - 1, so any
  // other count would silently alias sets). Called by every Cache.
  void Validate() const;
};

// One cache level. Addresses are identified by line number (addr >> 6).
class Cache {
 public:
  explicit Cache(const CacheGeometry& geo);

  // True if the line is present; does not update LRU.
  bool Probe(uint64_t line) const;

  // Lookup that promotes the line to MRU on hit. Returns true on hit.
  bool Touch(uint64_t line);

  // Inserts `line` as MRU; returns the evicted line, if the victim way held
  // one. Inserting a present line just promotes it.
  std::optional<uint64_t> Insert(uint64_t line);

  // Touch, and on a miss Insert (dropping the victim), in one scan of the
  // set. Returns true on hit. Leaves the same state as Touch-then-Insert.
  bool TouchOrInsert(uint64_t line);

  // Removes the line if present; returns true if it was.
  bool Invalidate(uint64_t line);

  // Removes every line (used between benchmark phases in tests).
  void Clear();

  uint64_t set_count() const { return sets_; }
  uint32_t way_count() const { return ways_; }

 private:
  struct Way {
    uint64_t line = kInvalid;
    uint64_t lru = 0;  // Higher = more recently used.
  };
  static constexpr uint64_t kInvalid = ~0ull;

  uint64_t SetOf(uint64_t line) const { return line & (sets_ - 1); }

  uint64_t sets_;
  uint32_t ways_;
  uint64_t tick_ = 0;
  std::vector<Way> ways_storage_;  // sets_ * ways_, row-major by set.
};

}  // namespace asfmem

#endif  // SRC_MEM_CACHE_H_
