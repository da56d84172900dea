// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Direct-indexed per-line and per-page state of the memory model.
//
// Every simulated access reads the coherence state of its line and the
// first-touch state of its page. Both live in one two-level table keyed by
// address: a sorted list of chunks, each holding the state of one fixed,
// aligned address span. A chunk is one anonymous mapping that the kernel
// hands out zero-filled and populates page by page as it is written, so
// all-zero must mean "untouched" and host memory grows with the lines and
// pages actually touched, not with the span. The page-present bits sit at
// the front of the chunk: marking tens of MiB present writes a few KiB.
#ifndef SRC_MEM_STATE_TABLE_H_
#define SRC_MEM_STATE_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/common/defs.h"

namespace asfmem {

// Coherence state of one line. All-zero: no sharers, no owner. Packed to
// five bytes: the table's host memory is proportional to its size.
struct __attribute__((packed)) LineState {
  // Bitmask of cores whose private hierarchy may hold the line.
  uint32_t sharers;
  // Core that holds the line exclusively/dirty, plus one; 0 for none.
  uint8_t owner;
};

class StateTable {
 public:
  // Address bits one chunk spans (1 GiB: a machine's 512 MiB arena touches
  // one or two chunks, so the last-chunk memo nearly always hits).
  static constexpr uint32_t kChunkShift = 30;
  static constexpr uint64_t kChunkBytes = uint64_t{1} << kChunkShift;

  StateTable() = default;
  ~StateTable();
  StateTable(const StateTable&) = delete;
  StateTable& operator=(const StateTable&) = delete;

  LineState& Line(uint64_t line) {
    return ChunkOf(line >> kLineKeyShift)->lines[line & (kChunkLines - 1)];
  }

  // Marks `page` present; returns true if it was absent (a first touch).
  bool MarkPresent(uint64_t page) {
    uint64_t& word = ChunkOf(page >> kPageKeyShift)->present[(page & (kChunkPages - 1)) / 64];
    const uint64_t bit = uint64_t{1} << (page % 64);
    if ((word & bit) != 0) {
      return false;
    }
    word |= bit;
    return true;
  }

  // Marks pages [first, last] present.
  void MarkPresent(uint64_t first, uint64_t last);

 private:
  static constexpr uint32_t kLineKeyShift = kChunkShift - asfcommon::kCacheLineShift;
  static constexpr uint32_t kPageKeyShift = kChunkShift - asfcommon::kPageShift;
  static constexpr uint64_t kChunkLines = uint64_t{1} << kLineKeyShift;
  static constexpr uint64_t kChunkPages = uint64_t{1} << kPageKeyShift;

  struct Chunk {
    uint64_t present[kChunkPages / 64];  // Bit per page.
    LineState lines[kChunkLines];
  };
  struct Slot {
    uint64_t key;  // Address >> kChunkShift.
    Chunk* chunk;
  };

  Chunk* ChunkOf(uint64_t key) { return key == memo_key_ ? memo_chunk_ : Lookup(key); }
  // Finds or maps the chunk for `key` and makes it the memo.
  Chunk* Lookup(uint64_t key);

  std::vector<Slot> chunks_;  // Sorted by key.
  uint64_t memo_key_ = ~uint64_t{0};  // No address has this key.
  Chunk* memo_chunk_ = nullptr;
};

}  // namespace asfmem

#endif  // SRC_MEM_STATE_TABLE_H_
