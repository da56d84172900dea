// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/mem/tlb.h"

#include <bit>

namespace asfmem {

LruPageSet::LruPageSet(uint32_t capacity) : capacity_(capacity) {
  ASF_CHECK_MSG(capacity >= 1, "TLB must have at least one entry");
  // At most a quarter full, so probe runs stay short.
  const uint64_t slots = std::bit_ceil(uint64_t{capacity} * 4);
  index_.assign(slots, kNil);
  index_shift_ = 64 - static_cast<uint32_t>(std::countr_zero(slots));
  entries_.reserve(capacity);
}

uint32_t LruPageSet::Find(uint64_t page) const {
  const uint32_t mask = static_cast<uint32_t>(index_.size() - 1);
  uint32_t slot = Home(page);
  while (index_[slot] != kNil && entries_[index_[slot]].page != page) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

bool LruPageSet::Touch(uint64_t page) {
  const uint32_t e = index_[Find(page)];
  if (e == kNil) {
    return false;
  }
  if (e != head_) {
    Unlink(e);
    PushFront(e);
  }
  return true;
}

void LruPageSet::Insert(uint64_t page) {
  uint32_t e;
  if (entries_.size() < capacity_) {
    e = static_cast<uint32_t>(entries_.size());
    entries_.push_back(Entry{});
  } else {
    e = tail_;
    EraseSlot(Find(entries_[e].page));
    Unlink(e);
  }
  entries_[e].page = page;
  index_[Find(page)] = e;
  PushFront(e);
}

void LruPageSet::EraseSlot(uint32_t slot) {
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless its home lies cyclically in (hole, member].
  const uint32_t mask = static_cast<uint32_t>(index_.size() - 1);
  uint32_t hole = slot;
  for (uint32_t next = (hole + 1) & mask; index_[next] != kNil; next = (next + 1) & mask) {
    const uint32_t home = Home(entries_[index_[next]].page);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = kNil;
}

void LruPageSet::Unlink(uint32_t e) {
  Entry& entry = entries_[e];
  if (entry.prev != kNil) {
    entries_[entry.prev].next = entry.next;
  } else {
    head_ = entry.next;
  }
  if (entry.next != kNil) {
    entries_[entry.next].prev = entry.prev;
  } else {
    tail_ = entry.prev;
  }
}

void LruPageSet::PushFront(uint32_t e) {
  entries_[e].prev = kNil;
  entries_[e].next = head_;
  if (head_ != kNil) {
    entries_[head_].prev = e;
  } else {
    tail_ = e;
  }
  head_ = e;
}

}  // namespace asfmem
