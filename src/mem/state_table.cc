// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/mem/state_table.h"

#include <sys/mman.h>

#include <algorithm>
#include <type_traits>

namespace asfmem {

// Chunks are used straight from zero-filled mappings, never constructed.
static_assert(std::is_trivial_v<LineState>);

StateTable::~StateTable() {
  for (const Slot& s : chunks_) {
    ::munmap(s.chunk, sizeof(Chunk));
  }
}

StateTable::Chunk* StateTable::Lookup(uint64_t key) {
  auto it = std::lower_bound(chunks_.begin(), chunks_.end(), key,
                             [](const Slot& s, uint64_t k) { return s.key < k; });
  if (it == chunks_.end() || it->key != key) {
    void* p = ::mmap(nullptr, sizeof(Chunk), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    ASF_CHECK_MSG(p != MAP_FAILED, "StateTable chunk mmap failed");
    it = chunks_.insert(it, Slot{key, static_cast<Chunk*>(p)});
  }
  memo_key_ = key;
  memo_chunk_ = it->chunk;
  return memo_chunk_;
}

void StateTable::MarkPresent(uint64_t first, uint64_t last) {
  for (uint64_t page = first;;) {
    // Pages [page, end] lie in one chunk; set their bits a word at a time.
    const uint64_t end = std::min(last, page | (kChunkPages - 1));
    uint64_t* present = ChunkOf(page >> kPageKeyShift)->present;
    for (uint64_t p = page; p <= end;) {
      const uint64_t count = std::min(64 - p % 64, end - p + 1);
      const uint64_t ones = count == 64 ? ~uint64_t{0} : ((uint64_t{1} << count) - 1) << (p % 64);
      present[(p & (kChunkPages - 1)) / 64] |= ones;
      p += count;
    }
    if (end == last) {
      return;  // Tested before end + 1, which wraps at the top of the space.
    }
    page = end + 1;
  }
}

}  // namespace asfmem
