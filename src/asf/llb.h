// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Locked-line buffer (LLB): the fully associative CPU structure proposed by
// the paper (Sec. 2.3) that holds the addresses of protected memory lines
// plus backup copies of speculatively modified lines. On abort, the backups
// are written back to memory before the triggering probe is answered.
//
// In this simulation, "memory" is host memory: a speculative store writes
// the host location directly and the LLB keeps the 64-byte pre-image;
// RestoreAll() undoes every speculative modification. This is exactly the
// hardware design's data flow (write in place, backup in the LLB).
//
// The line->entry index is a FlatMap64 (src/common/flat_table.h) sized at
// two slots per entry, so it never grows and probes stay short. Inside a
// Machine it is probed only to add or release a line: AsfContext answers
// membership from the conflict directory's reader and writer bits, so
// HasLine and HasWrittenLine serve an Llb driven on its own. The entries
// themselves sit in an array in insertion order (Release swaps the last one
// into the hole), which fixes the order of ForEachLine and RestoreAll.
#ifndef SRC_ASF_LLB_H_
#define SRC_ASF_LLB_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/defs.h"
#include "src/common/flat_table.h"

namespace asf {

class Llb {
 public:
  // Capacity must be a nonzero power of two (hardware sizes). The spec's
  // maximum is 256 entries.
  explicit Llb(uint32_t capacity) : capacity_(capacity), index_(size_t{capacity} * 2) {
    ASF_CHECK_MSG(std::has_single_bit(capacity), "LLB capacity must be a nonzero power of two");
    ASF_CHECK_MSG(capacity <= 256, "LLB capacity exceeds the ASF spec maximum (256)");
  }

  uint32_t capacity() const { return capacity_; }
  uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }
  bool Full() const { return size() >= capacity_; }

  bool HasLine(uint64_t line) const { return index_.Contains(line); }
  bool HasWrittenLine(uint64_t line) const {
    const uint32_t* pos = index_.Find(line);
    return pos != nullptr && entries_[*pos - 1].written;
  }

  // Adds `line` to the protected set (read monitoring). Returns false if the
  // buffer is full (capacity abort).
  bool AddRead(uint64_t line) {
    uint32_t& pos = index_[line];
    return pos != 0 || Append(line, pos) != nullptr;
  }

  // Adds `line` to the write set, taking a backup of the line's current
  // (pre-speculative) host content. Must be called before the speculative
  // store modifies host memory. Returns false on capacity overflow.
  bool AddWrite(uint64_t line) {
    uint32_t& pos = index_[line];
    Entry* e = pos != 0 ? &entries_[pos - 1] : Append(line, pos);
    if (e == nullptr) {
      return false;
    }
    if (!e->written) {
      Backup(*e);
    }
    return true;
  }

  // RELEASE semantics: drops a read-only line from the protected set. A
  // pending speculative store cannot be cancelled (only ABORT can), so a
  // written line is left untouched — RELEASE is strictly a hint. Returns
  // true when an entry was actually dropped.
  bool Release(uint64_t line) {
    const uint32_t* found = index_.Find(line);
    if (found == nullptr || entries_[*found - 1].written) {
      return false;
    }
    const uint32_t pos = *found - 1;
    index_.Erase(line);
    if (pos + 1 != size()) {
      entries_[pos] = entries_.back();
      *index_.Find(entries_[pos].line) = pos + 1;
    }
    entries_.pop_back();
    return true;
  }

  // Commit: discard all entries; speculative values in memory become
  // authoritative (flash-clear of speculative bits).
  void Clear() {
    index_.Clear();
    entries_.clear();
    written_count_ = 0;
  }

  // Abort: write every backup copy back to memory, then clear.
  void RestoreAll() {
    for (Entry& e : entries_) {
      if (e.written) {
        std::memcpy(reinterpret_cast<void*>(e.line << asfcommon::kCacheLineShift),
                    e.backup.data(), asfcommon::kCacheLineBytes);
      }
    }
    Clear();
  }

  uint32_t written_count() const { return written_count_; }

  // Visits every tracked (line, written) pair in insertion-ish order (entry
  // array order; Release may have swapped entries). Used for the per-line
  // conflict-directory teardown on commit/abort.
  template <typename Fn>
  void ForEachLine(Fn&& fn) const {
    for (const Entry& e : entries_) {
      fn(e.line, e.written);
    }
  }

 private:
  struct Entry {
    uint64_t line;
    bool written;
    std::array<uint8_t, asfcommon::kCacheLineBytes> backup;
  };

  // Appends `line` unwritten and points its index value `pos` at it, or,
  // when the buffer is full (a capacity abort), erases the key the caller's
  // probe just inserted and returns nullptr. Forced inline: left to itself
  // the compiler calls it, which costs ~10% of an insert.
  [[gnu::always_inline]] Entry* Append(uint64_t line, uint32_t& pos) {
    if (Full()) {
      index_.Erase(line);
      return nullptr;
    }
    entries_.push_back(Entry{line, false, {}});
    pos = size();
    return &entries_.back();
  }

  void Backup(Entry& e) {
    std::memcpy(e.backup.data(),
                reinterpret_cast<const void*>(e.line << asfcommon::kCacheLineShift),
                asfcommon::kCacheLineBytes);
    e.written = true;
    ++written_count_;
  }

  const uint32_t capacity_;
  std::vector<Entry> entries_;
  // Line -> entry index + 1. Two slots per entry: never grows.
  asfcommon::FlatMap64<uint32_t> index_;
  uint32_t written_count_ = 0;
};

}  // namespace asf

#endif  // SRC_ASF_LLB_H_
