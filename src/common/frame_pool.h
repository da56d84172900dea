// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Size-bucketed recycler for C++20 coroutine frames.
//
// Every simulated function that touches simulated memory is a coroutine
// (src/sim/task.h), and every abort/retry cycle destroys and re-creates the
// attempt's frame tree. TaskPromise's operator new/delete route frames
// through per-thread LIFO free lists, one per 64-byte size class, so a retry
// reuses the frames its previous attempt just released.
//
// Design constraints:
//  * No block header. The promise's sized operator delete hands Free() the
//    frame size, which names the size class; a parked block's first word is
//    its free-list link.
//  * No owner. Free() pushes onto the freeing thread's list, so a frame
//    created on one host thread and destroyed on another joins the freeing
//    thread's list. A list therefore holds at most the frames of its class
//    that were live at once on its thread, plus those other threads handed
//    over (none in the benches: docs/PERFORMANCE.md); the lists are
//    released when the thread exits.
//  * Frames are recycled verbatim, so a use-after-destroy of a coroutine
//    would go silent. Under ASan a parked block is poisoned, link included,
//    so the sanitizer still sees it (tests/frame_pool_test.cc).
//  * Host-only: frame addresses never reach the simulated memory model, so
//    recycling cannot change any simulated outcome (bench/perf_selfcheck
//    checks the digests).
#ifndef SRC_COMMON_FRAME_POOL_H_
#define SRC_COMMON_FRAME_POOL_H_

#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ASF_FRAME_POOL_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define ASF_FRAME_POOL_ASAN 1
#endif

#ifdef ASF_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace asfcommon {

class FramePool {
 public:
  // Counters for the calling thread (monotone). pool_hits/allocs is the
  // recycle rate bench/perf_selfcheck reports.
  struct Stats {
    uint64_t allocs = 0;     // Total Alloc() calls.
    uint64_t pool_hits = 0;  // Served from a free list.
  };

  // Size classes of kGranuleBytes; frames over kNumBuckets granules (2 KiB)
  // go straight to the host allocator.
  static constexpr std::size_t kGranuleBytes = 64;
  static constexpr std::size_t kNumBuckets = 32;
  static constexpr std::size_t BucketOf(std::size_t size) { return (size - 1) / kGranuleBytes; }

  FramePool() = default;
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;
  ~FramePool() {
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      while (void* p = Pop(b)) {
        ::operator delete(p, BlockBytes(b));
      }
    }
  }

  // The calling thread's pool (created on first use, destroyed at thread
  // exit).
  static FramePool& ForThread() {
    thread_local FramePool pool;
    return pool;
  }

  void* Alloc(std::size_t size) {
    ++stats_.allocs;
    const std::size_t bucket = BucketOf(size);
    if (bucket >= kNumBuckets) {
      return ::operator new(size);
    }
    if (void* p = Pop(bucket)) {
      ++stats_.pool_hits;
      return p;
    }
    return ::operator new(BlockBytes(bucket));
  }

  // `size` is the size `p` was allocated with.
  static void Free(void* p, std::size_t size) {
    const std::size_t bucket = BucketOf(size);
    if (bucket >= kNumBuckets) {
      ::operator delete(p, size);
      return;
    }
    FramePool& self = ForThread();
    Block* b = static_cast<Block*>(p);
    b->next = self.free_[bucket];
    self.free_[bucket] = b;
#ifdef ASF_FRAME_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(b, BlockBytes(bucket));
#endif
  }

  const Stats& stats() const { return stats_; }

 private:
  struct Block {
    Block* next;
  };

  static constexpr std::size_t BlockBytes(std::size_t bucket) {
    return (bucket + 1) * kGranuleBytes;
  }

  void* Pop(std::size_t bucket) {
    Block* b = free_[bucket];
    if (b != nullptr) {
#ifdef ASF_FRAME_POOL_ASAN
      ASAN_UNPOISON_MEMORY_REGION(b, BlockBytes(bucket));
#endif
      free_[bucket] = b->next;
    }
    return b;
  }

  Block* free_[kNumBuckets] = {};
  Stats stats_;
};

}  // namespace asfcommon

#endif  // SRC_COMMON_FRAME_POOL_H_
