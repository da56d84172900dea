// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/mem/cache.h"

#include <bit>

namespace asfmem {

void CacheGeometry::Validate() const {
  ASF_CHECK_MSG(size_bytes != 0 && size_bytes % asfcommon::kCacheLineBytes == 0,
                "cache size must be a nonzero multiple of the line size");
  ASF_CHECK_MSG(ways >= 1, "cache must have at least one way");
  ASF_CHECK_MSG(NumLines() % ways == 0, "cache lines must divide evenly into sets");
  ASF_CHECK_MSG(std::has_single_bit(NumSets()),
                "cache set count must be a nonzero power of two (SetOf masks with sets - 1)");
}

Cache::Cache(const CacheGeometry& geo) : sets_(geo.NumSets()), ways_(geo.ways) {
  geo.Validate();
  ways_storage_.resize(sets_ * ways_);
}

bool Cache::Probe(uint64_t line) const {
  const Way* set = &ways_storage_[SetOf(line) * ways_];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].line == line) {
      return true;
    }
  }
  return false;
}

bool Cache::Touch(uint64_t line) {
  Way* set = &ways_storage_[SetOf(line) * ways_];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].line == line) {
      set[w].lru = ++tick_;
      return true;
    }
  }
  return false;
}

std::optional<uint64_t> Cache::Insert(uint64_t line) {
  Way* set = &ways_storage_[SetOf(line) * ways_];
  Way* victim = &set[0];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].line == line) {
      set[w].lru = ++tick_;
      return std::nullopt;
    }
    if (set[w].line == kInvalid) {
      // Prefer an empty way; no better victim can exist.
      victim = &set[w];
      break;
    }
    if (set[w].lru < victim->lru) {
      victim = &set[w];
    }
  }
  std::optional<uint64_t> evicted;
  if (victim->line != kInvalid) {
    evicted = victim->line;
  }
  victim->line = line;
  victim->lru = ++tick_;
  return evicted;
}

bool Cache::TouchOrInsert(uint64_t line) {
  Way* set = &ways_storage_[SetOf(line) * ways_];
  // Insert's victim rule (first empty way, else least recently used), but
  // the scan runs on past an empty way: like Touch, it must find the line
  // wherever it sits in the set.
  Way* victim = &set[0];
  bool victim_empty = false;
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].line == line) {
      set[w].lru = ++tick_;
      return true;
    }
    if (victim_empty) {
      continue;
    }
    if (set[w].line == kInvalid) {
      victim = &set[w];
      victim_empty = true;
    } else if (set[w].lru < victim->lru) {
      victim = &set[w];
    }
  }
  victim->line = line;
  victim->lru = ++tick_;
  return false;
}

bool Cache::Invalidate(uint64_t line) {
  Way* set = &ways_storage_[SetOf(line) * ways_];
  for (uint32_t w = 0; w < ways_; ++w) {
    if (set[w].line == line) {
      set[w].line = kInvalid;
      set[w].lru = 0;
      return true;
    }
  }
  return false;
}

void Cache::Clear() {
  for (auto& w : ways_storage_) {
    w.line = kInvalid;
    w.lru = 0;
  }
}

}  // namespace asfmem
