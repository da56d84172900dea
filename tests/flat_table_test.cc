// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests for the open-addressing hash table (src/common/flat_table.h) that
// backs the LLB's line index and the L1 TLB's page index. The randomized
// cases drive a small key range through a small initial table, forcing
// probe-chain collisions, backward-shift deletions across wrapped chains,
// and growth rehashes, and check every observation against a
// std::unordered_map reference model.
#include "src/common/flat_table.h"

#include <cstdint>
#include <unordered_map>

#include <gtest/gtest.h>

namespace {

// Deterministic 64-bit LCG (same constants as MMIX) so failures reproduce.
uint64_t Next(uint64_t* state) {
  *state = *state * 6364136223846793005ull + 1442695040888963407ull;
  return *state >> 16;
}

TEST(FlatMapTest, InsertFindErase) {
  asfcommon::FlatMap64<int> map(8);
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.Contains(42));
  EXPECT_EQ(map.Find(42), nullptr);

  map[42] = 7;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.Contains(42));
  ASSERT_NE(map.Find(42), nullptr);
  EXPECT_EQ(*map.Find(42), 7);

  map[42] = 8;  // Overwrite, not duplicate.
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(42), 8);

  EXPECT_TRUE(map.Erase(42));
  EXPECT_FALSE(map.Erase(42));
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.Contains(42));
}

TEST(FlatMapTest, OperatorIndexDefaultConstructs) {
  asfcommon::FlatMap64<int> map;
  EXPECT_EQ(map[5], 0);
  map[5] += 3;
  EXPECT_EQ(map[5], 3);
}

TEST(FlatMapTest, GrowthRehashPreservesMappings) {
  asfcommon::FlatMap64<uint64_t> map(8);
  for (uint64_t k = 0; k < 1000; ++k) {
    map[k * 64] = k;  // Line-number-like keys (low entropy, stride 64).
  }
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t k = 0; k < 1000; ++k) {
    ASSERT_NE(map.Find(k * 64), nullptr) << k;
    EXPECT_EQ(*map.Find(k * 64), k);
  }
}

TEST(FlatMapTest, ClearResetsEverything) {
  asfcommon::FlatMap64<int> map;
  for (uint64_t k = 0; k < 100; ++k) {
    map[k] = 1;
  }
  map.Clear();
  EXPECT_TRUE(map.empty());
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_FALSE(map.Contains(k));
  }
  EXPECT_EQ(map[3], 0);  // A new key starts at V{}, whatever its slot held.
}

// Erase leaves the value array as it was; the next insert into a vacated slot
// must still read V{}. Dense keys in a small table make the erases shift
// values along their probe chains.
TEST(FlatMapTest, ReinsertAfterEraseStartsAtDefault) {
  asfcommon::FlatMap64<int> map(16);
  for (uint64_t k = 0; k < 12; ++k) {
    map[k] = static_cast<int>(k) + 100;
  }
  for (uint64_t k = 0; k < 12; k += 2) {
    EXPECT_TRUE(map.Erase(k));
  }
  for (uint64_t k = 1; k < 12; k += 2) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), static_cast<int>(k) + 100) << k;
  }
  for (uint64_t k = 0; k < 12; k += 2) {
    EXPECT_EQ(map[k], 0) << k;
  }
}

TEST(FlatMapTest, RandomizedAgainstReferenceModel) {
  asfcommon::FlatMap64<uint32_t> map(8);
  std::unordered_map<uint64_t, uint32_t> ref;
  uint64_t rng = 1;
  for (int op = 0; op < 20000; ++op) {
    uint64_t key = Next(&rng) % 97;  // Small range: heavy collisions/reuse.
    switch (Next(&rng) % 3) {
      case 0:
        map[key] = static_cast<uint32_t>(op);
        ref[key] = static_cast<uint32_t>(op);
        break;
      case 1:
        EXPECT_EQ(map.Erase(key), ref.erase(key) != 0) << "op " << op;
        break;
      default: {
        auto it = ref.find(key);
        const uint32_t* found = map.Find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op;
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second) << "op " << op;
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), ref.size()) << "op " << op;
  }
}

TEST(FlatMapTest, ForEachVisitsEveryEntryOnce) {
  asfcommon::FlatMap64<int> map(8);
  std::unordered_map<uint64_t, int> ref;
  for (uint64_t k = 0; k < 200; k += 3) {
    map[k * 4096] = static_cast<int>(k);
    ref[k * 4096] = static_cast<int>(k);
  }
  map.Erase(12 * 4096);
  ref.erase(12 * 4096);
  std::unordered_map<uint64_t, int> seen;
  map.ForEach([&](uint64_t key, const int& v) {
    EXPECT_TRUE(seen.emplace(key, v).second) << "key visited twice: " << key;
  });
  EXPECT_EQ(seen, ref);
}

}  // namespace
