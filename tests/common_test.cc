// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests for the common utilities: deterministic RNG, table printer, arena.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "src/common/abort_cause.h"
#include "src/common/arena.h"
#include "src/common/random.h"
#include "src/common/table.h"

namespace asfcommon {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.NextBelow(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    uint64_t v = rng.NextInRange(10, 13);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // All four values hit.
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(AbortCauseNames, AllValuesNamed) {
  for (uint32_t i = 0; i < static_cast<uint32_t>(AbortCause::kNumCauses); ++i) {
    const char* name = AbortCauseName(static_cast<AbortCause>(i));
    EXPECT_NE(std::string(name), "invalid") << i;
  }
}

TEST(Table, FormatsNumbersAndInts) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(1.0, 0), "1");
  EXPECT_EQ(Table::Int(-42), "-42");
}

TEST(SimArena, BaseIsAlignedAndAllocationsDoNotOverlap) {
  SimArena arena(1 << 20);
  EXPECT_EQ(arena.base() % SimArena::kBaseAlignment, 0u);
  void* a = arena.Alloc(100, 64);
  void* b = arena.Alloc(100, 64);
  EXPECT_EQ(reinterpret_cast<uint64_t>(a) % 64, 0u);
  EXPECT_GE(reinterpret_cast<uint64_t>(b), reinterpret_cast<uint64_t>(a) + 100);
  std::memset(a, 0xAA, 100);
  std::memset(b, 0xBB, 100);
  EXPECT_EQ(static_cast<uint8_t*>(a)[99], 0xAA);  // No overlap.
}

TEST(SimArena, NewArrayZeroInitializes) {
  SimArena arena(1 << 20);
  auto* xs = arena.NewArray<uint64_t>(128);
  for (int i = 0; i < 128; ++i) {
    EXPECT_EQ(xs[i], 0u);
  }
}

// NewArray hands out trivially constructible spans unwritten: the fresh
// mapping is already zero, so a large table costs no host memory until a
// run touches it.
TEST(SimArena, NewArrayLeavesTrivialSpansUntouched) {
  constexpr uint64_t kBytes = 64ull << 20;
  SimArena arena(kBytes);
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  auto* xs = arena.NewArray<uint64_t>(kBytes / sizeof(uint64_t), page);
  std::vector<unsigned char> resident(kBytes / page);
  ASSERT_EQ(::mincore(xs, kBytes, resident.data()), 0);
  size_t resident_pages = 0;
  for (unsigned char r : resident) {
    resident_pages += r & 1;
  }
  EXPECT_EQ(resident_pages, 0u);
  uint64_t nonzero = 0;
  for (uint64_t i = 0; i < kBytes / sizeof(uint64_t); ++i) {
    nonzero += xs[i] != 0 ? 1 : 0;
  }
  EXPECT_EQ(nonzero, 0u);
}

TEST(SimArena, NewArrayKeepsDefaultMemberInitializers) {
  struct Slot {
    int32_t owner = -1;
    uint32_t count;
  };
  SimArena arena(1 << 20);
  auto* slots = arena.NewArray<Slot>(1000);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(slots[i].owner, -1);
    EXPECT_EQ(slots[i].count, 0u);
  }
}

TEST(SimArena, RelativeLayoutIsStableAcrossInstances) {
  // The determinism guarantee: two arenas hand out the same offsets for the
  // same allocation sequence.
  SimArena a(1 << 20);
  SimArena b(1 << 20);
  uint64_t oa1 = reinterpret_cast<uint64_t>(a.Alloc(96, 64)) - a.base();
  uint64_t ob1 = reinterpret_cast<uint64_t>(b.Alloc(96, 64)) - b.base();
  uint64_t oa2 = reinterpret_cast<uint64_t>(a.Alloc(17, 8)) - a.base();
  uint64_t ob2 = reinterpret_cast<uint64_t>(b.Alloc(17, 8)) - b.base();
  EXPECT_EQ(oa1, ob1);
  EXPECT_EQ(oa2, ob2);
}

TEST(SimArenaDeathTest, ExhaustionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimArena arena(4096);
        arena.Alloc(8192, 64);
      },
      "SimArena exhausted");
}

}  // namespace
}  // namespace asfcommon
