// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests for the coroutine frame recycler (src/common/frame_pool.h): bucket
// arithmetic, a randomized allocate/free workload cross-checked against a
// reference model of the free lists, a frame handed from one host thread to
// another, and — the case the pool exists for — frame reuse across coroutine
// abort/retry cycles. The whole file also runs under ASan (build-san), where
// parked blocks are poisoned, and under TSan (label host_threads).
#include "src/common/frame_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/sim/task.h"

namespace asfcommon {
namespace {

// The largest frame the pool recycles (2 KiB).
constexpr std::size_t kMaxPooled = FramePool::kGranuleBytes * FramePool::kNumBuckets;

TEST(FramePoolTest, BucketArithmetic) {
  EXPECT_EQ(FramePool::BucketOf(1), 0u);
  EXPECT_EQ(FramePool::BucketOf(64), 0u);
  EXPECT_EQ(FramePool::BucketOf(65), 1u);
  EXPECT_EQ(FramePool::BucketOf(kMaxPooled), FramePool::kNumBuckets - 1);
  EXPECT_EQ(FramePool::BucketOf(kMaxPooled + 1), FramePool::kNumBuckets);
}

TEST(FramePoolTest, RecyclesSameBucketLifo) {
  FramePool& tp = FramePool::ForThread();
  const uint64_t hits_before = tp.stats().pool_hits;
  void* c = tp.Alloc(100);
  void* d = tp.Alloc(100);
  FramePool::Free(c, 100);
  FramePool::Free(d, 100);
  void* e = tp.Alloc(120);  // Same size class, LIFO: reuses d's block.
  EXPECT_EQ(e, d);
  EXPECT_EQ(tp.stats().pool_hits, hits_before + 1);
  void* f = tp.Alloc(100);  // Then c's.
  EXPECT_EQ(f, c);
  FramePool::Free(e, 120);
  FramePool::Free(f, 100);
}

TEST(FramePoolTest, OversizeBypassesPool) {
  FramePool& tp = FramePool::ForThread();
  const FramePool::Stats before = tp.stats();
  void* p = tp.Alloc(kMaxPooled + 1);
  std::memset(p, 0xab, kMaxPooled + 1);
  FramePool::Free(p, kMaxPooled + 1);  // Straight back to ::operator delete.
  void* q = tp.Alloc(kMaxPooled + 1);  // Never served from a free list.
  EXPECT_EQ(tp.stats().allocs, before.allocs + 2);
  EXPECT_EQ(tp.stats().pool_hits, before.pool_hits);
  FramePool::Free(q, kMaxPooled + 1);
}

// Randomized workload against a reference model: the pool must serve exactly
// the block the model predicts (LIFO per bucket), and writes through every
// live pointer must never interfere.
TEST(FramePoolTest, RandomizedAgainstReferenceModel) {
  FramePool& tp = FramePool::ForThread();
  struct Live {
    void* p;
    std::size_t size;
    uint8_t fill;
  };
  std::vector<Live> live;
  std::map<std::size_t, std::deque<void*>> model_free;  // bucket -> LIFO stack.
  asfcommon::Rng rng(20260807);
  for (int step = 0; step < 20000; ++step) {
    if (live.empty() || rng.NextBelow(100) < 55) {
      std::size_t size = 1 + rng.NextBelow(kMaxPooled);
      const std::size_t bucket = FramePool::BucketOf(size);
      void* expected = nullptr;
      if (!model_free[bucket].empty()) {
        expected = model_free[bucket].back();
        model_free[bucket].pop_back();
      }
      void* p = tp.Alloc(size);
      if (expected != nullptr) {
        ASSERT_EQ(p, expected) << "pool served a different block than LIFO order predicts";
      }
      uint8_t fill = static_cast<uint8_t>(rng.Next());
      std::memset(p, fill, size);
      live.push_back(Live{p, size, fill});
    } else {
      std::size_t idx = rng.NextBelow(live.size());
      Live victim = live[idx];
      live[idx] = live.back();
      live.pop_back();
      // The block's contents must be exactly what we wrote (no cross-block
      // interference from free-list links).
      const uint8_t* bytes = static_cast<const uint8_t*>(victim.p);
      ASSERT_EQ(bytes[0], victim.fill);
      ASSERT_EQ(bytes[victim.size - 1], victim.fill);
      FramePool::Free(victim.p, victim.size);
      model_free[FramePool::BucketOf(victim.size)].push_back(victim.p);
    }
  }
  for (const Live& l : live) {
    FramePool::Free(l.p, l.size);
  }
}

// A block carries no owner: one allocated on thread A and freed on thread B
// joins B's free list and serves B's next allocation of its size class.
TEST(FramePoolTest, FrameFreedOnAnotherThreadIsReusedThere) {
  void* from_a = nullptr;
  std::thread a([&] { from_a = FramePool::ForThread().Alloc(300); });
  a.join();
  void* reused = nullptr;
  uint64_t hits = 0;
  std::thread b([&] {
    FramePool& pool = FramePool::ForThread();
    FramePool::Free(from_a, 300);
    reused = pool.Alloc(300);
    hits = pool.stats().pool_hits;
    FramePool::Free(reused, 300);
  });
  b.join();
  EXPECT_EQ(reused, from_a);
  EXPECT_EQ(hits, 1u);
}

#ifdef ASF_FRAME_POOL_ASAN
// A parked block is poisoned, link included, so touching a recycled frame
// trips ASan; reuse unpoisons the whole block.
TEST(FramePoolTest, ParkedBlocksArePoisonedUnderAsan) {
  FramePool& tp = FramePool::ForThread();
  void* p = tp.Alloc(200);
  FramePool::Free(p, 200);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(static_cast<char*>(p) + 255));
  void* q = tp.Alloc(200);
  ASSERT_EQ(q, p);
  EXPECT_EQ(__asan_region_is_poisoned(q, 256), nullptr);
  FramePool::Free(q, 200);
}
#endif

// --- Coroutine integration: reuse across abort/retry ------------------------

asfsim::Task<void> Leaf(int* counter) {
  *counter += 1;
  co_return;
}

asfsim::Task<void> Attempt(int* counter) {
  co_await Leaf(counter);
  co_await Leaf(counter);
  co_return;
}

// Runs an "attempt" to completion (resuming from its initial suspend), the
// shape a committed transaction has; the frames are freed on Task
// destruction and must be recycled by the next attempt. A 100% hit rate also
// pins that the sized delete reports the size the frame was allocated with.
TEST(FramePoolTest, CoroutineFramesRecycleAcrossAttempts) {
  FramePool& tp = FramePool::ForThread();
  int counter = 0;
  // Warm-up attempt populates the free lists.
  {
    asfsim::Task<void> t = Attempt(&counter);
    t.handle().resume();
    EXPECT_TRUE(t.Done());
  }
  const FramePool::Stats before = tp.stats();
  constexpr int kAttempts = 100;
  for (int i = 0; i < kAttempts; ++i) {
    asfsim::Task<void> t = Attempt(&counter);
    t.handle().resume();
    EXPECT_TRUE(t.Done());
  }
  const FramePool::Stats after = tp.stats();
  // Every frame after the warm-up must come from the pool: 3 frames per
  // attempt (Attempt + 2 sequential Leafs, the second reusing the first's
  // just-freed frame), zero new mallocs.
  EXPECT_EQ(after.allocs - before.allocs, static_cast<uint64_t>(3 * kAttempts));
  EXPECT_EQ(after.pool_hits - before.pool_hits, after.allocs - before.allocs);
  EXPECT_EQ(counter, 2 * (kAttempts + 1));
}

// Destroying a suspended attempt mid-flight (the abort path: AbortScope
// destroys the body tree) frees the whole frame tree; the retry re-allocates
// it from the pool.
asfsim::Task<void> SuspendingLeaf() {
  co_await std::suspend_always{};
  co_return;
}

asfsim::Task<void> SuspendingAttempt() {
  co_await SuspendingLeaf();
  co_return;
}

TEST(FramePoolTest, AbortedAttemptFramesAreReused) {
  FramePool& tp = FramePool::ForThread();
  {
    asfsim::Task<void> warm = SuspendingAttempt();
    warm.handle().resume();  // Parks inside SuspendingLeaf.
  }                          // Destroyed while suspended — the abort shape.
  const FramePool::Stats before = tp.stats();
  for (int i = 0; i < 50; ++i) {
    asfsim::Task<void> t = SuspendingAttempt();
    t.handle().resume();
    EXPECT_FALSE(t.Done());
    // Task destructor destroys the suspended tree (rollback).
  }
  const FramePool::Stats after = tp.stats();
  EXPECT_EQ(after.pool_hits - before.pool_hits, after.allocs - before.allocs);
}

}  // namespace
}  // namespace asfcommon
