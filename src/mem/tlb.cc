// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/mem/tlb.h"

namespace asfmem {

// Four slots per entry keep probe runs short, and the index never grows.
LruPageSet::LruPageSet(uint32_t capacity) : index_(size_t{capacity} * 4), capacity_(capacity) {
  ASF_CHECK_MSG(capacity >= 1, "TLB must have at least one entry");
  entries_.reserve(capacity);
}

bool LruPageSet::Touch(uint64_t page) {
  const uint32_t* e = index_.Find(page);
  if (e == nullptr) {
    return false;
  }
  if (*e != head_) {
    Unlink(*e);
    PushFront(*e);
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
    index_.Erase(entries_[e].page);
    Unlink(e);
  }
  entries_[e].page = page;
  index_[page] = e;
  PushFront(e);
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
