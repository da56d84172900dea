// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Unit tests for the cache model, TLB, and memory-system timing/coherence.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>
#include <vector>

#include "src/mem/cache.h"
#include "src/mem/memory_system.h"
#include "src/mem/state_table.h"
#include "src/mem/tlb.h"

namespace asfmem {
namespace {

// xorshift64: the randomized tests below need a reproducible stream only.
struct XorShift {
  uint64_t state;
  uint64_t operator()() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

TEST(Cache, HitAfterInsert) {
  Cache c(CacheGeometry{4 * 1024, 2});  // 64 lines, 32 sets, 2 ways.
  EXPECT_FALSE(c.Probe(100));
  EXPECT_FALSE(c.Insert(100).has_value());
  EXPECT_TRUE(c.Probe(100));
  EXPECT_TRUE(c.Touch(100));
}

TEST(Cache, LruEvictionWithinSet) {
  Cache c(CacheGeometry{4 * 1024, 2});  // 32 sets.
  // Three lines mapping to set 0: line numbers 0, 32, 64.
  EXPECT_FALSE(c.Insert(0).has_value());
  EXPECT_FALSE(c.Insert(32).has_value());
  c.Touch(0);  // Make 32 the LRU.
  auto evicted = c.Insert(64);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 32u);
  EXPECT_TRUE(c.Probe(0));
  EXPECT_TRUE(c.Probe(64));
  EXPECT_FALSE(c.Probe(32));
}

TEST(Cache, InvalidateRemovesLine) {
  Cache c(CacheGeometry{4 * 1024, 2});
  c.Insert(7);
  EXPECT_TRUE(c.Invalidate(7));
  EXPECT_FALSE(c.Probe(7));
  EXPECT_FALSE(c.Invalidate(7));
}

TEST(Cache, InsertPresentLinePromotesWithoutEviction) {
  Cache c(CacheGeometry{4 * 1024, 2});
  c.Insert(0);
  c.Insert(32);
  EXPECT_FALSE(c.Insert(0).has_value());  // Re-insert: no eviction.
  EXPECT_TRUE(c.Probe(32));
}

TEST(Tlb, MissThenHit) {
  Tlb tlb(TlbParams{});
  uint64_t first = tlb.Translate(0x400000);
  EXPECT_GT(first, 0u);  // Walk.
  EXPECT_EQ(tlb.Translate(0x400008), 0u);  // Same page: L1 TLB hit.
  EXPECT_EQ(tlb.walks(), 1u);
}

TEST(Tlb, L2CatchesL1Overflow) {
  TlbParams p;
  Tlb tlb(p);
  // Touch more pages than the 48-entry L1 TLB holds, then revisit the first:
  // should hit L2 (cost l2_hit_cycles), not a full walk.
  for (uint64_t i = 0; i < 60; ++i) {
    tlb.Translate(i * asfcommon::kPageBytes);
  }
  uint64_t cost = tlb.Translate(0);
  EXPECT_EQ(cost, p.l2_hit_cycles);
}

// The duplicate-line behaviour of Insert, pinned so that it changes only on
// purpose: Insert stops scanning at the first empty way, so with a hole
// before the way that holds the line it stores a second copy, and one
// Invalidate leaves the other copy hitting. (ROADMAP.md's memory-hierarchy
// reference model is to land before the fix, which changes simulated
// results.) Touch finds the line past the hole, so TouchOrInsert does too.
TEST(Cache, InsertPastHoleDuplicatesLine) {
  const CacheGeometry one_set{2 * asfcommon::kCacheLineBytes, 2};
  constexpr uint64_t kA = 0;
  constexpr uint64_t kB = 1;
  Cache c(one_set);
  c.Insert(kA);
  c.Insert(kB);
  c.Invalidate(kA);  // Way 0 is a hole; B sits in way 1.
  EXPECT_FALSE(c.Insert(kB).has_value());  // Fills the hole: B twice.
  EXPECT_TRUE(c.Invalidate(kB));
  EXPECT_TRUE(c.Touch(kB));  // The second copy still hits.

  Cache fused(one_set);
  fused.Insert(kA);
  fused.Insert(kB);
  fused.Invalidate(kA);
  EXPECT_TRUE(fused.TouchOrInsert(kB));  // Hit on way 1; the hole stays.
  EXPECT_TRUE(fused.Invalidate(kB));
  EXPECT_FALSE(fused.Probe(kB));
}

// TouchOrInsert is Touch followed, on a miss, by Insert — in one scan. Run
// the same random trace, with Invalidate holes, through both and compare
// every line's presence after every step.
TEST(Cache, TouchOrInsertMatchesTouchThenInsert) {
  for (uint32_t ways : {2u, 4u}) {
    const uint64_t sets = ways;  // 2-way/2-set and 4-way/4-set.
    const CacheGeometry geo{sets * ways * asfcommon::kCacheLineBytes, ways};
    const uint64_t universe = sets * ways * 3;
    Cache fused(geo);
    Cache split(geo);
    XorShift next{0x9e3779b97f4a7c15ull + ways};
    for (int step = 0; step < 20000; ++step) {
      const uint64_t line = next() % universe;
      const uint64_t op = next() % 10;
      if (op < 2) {
        ASSERT_EQ(fused.Invalidate(line), split.Invalidate(line)) << "step " << step;
      } else if (op < 3) {
        // A plain Insert may duplicate a line (see above); both sides see it.
        ASSERT_EQ(fused.Insert(line), split.Insert(line)) << "step " << step;
      } else {
        const bool hit = split.Touch(line);
        if (!hit) {
          split.Insert(line);
        }
        ASSERT_EQ(fused.TouchOrInsert(line), hit) << "step " << step;
      }
      for (uint64_t l = 0; l < universe; ++l) {
        ASSERT_EQ(fused.Probe(l), split.Probe(l)) << "step " << step << " line " << l;
      }
    }
  }
}

// Brute-force reference TLB: the L1 as one std::list in recency order, the
// L2 as one such list per set.
class ReferenceTlb {
 public:
  explicit ReferenceTlb(const TlbParams& p)
      : p_(p), l2_sets_(p.l2_entries / p.l2_ways) {}

  uint64_t Translate(uint64_t page) {
    if (Touch(l1_, page)) {
      return 0;
    }
    Fill(l1_, page, p_.l1_entries);
    std::list<uint64_t>& set = l2_sets_[page % l2_sets_.size()];
    if (Touch(set, page)) {
      return p_.l2_hit_cycles;
    }
    Fill(set, page, p_.l2_ways);
    ++walks_;
    return p_.l2_hit_cycles + p_.walk_cycles;
  }
  uint64_t walks() const { return walks_; }

 private:
  static bool Touch(std::list<uint64_t>& lru, uint64_t page) {
    auto it = std::find(lru.begin(), lru.end(), page);
    if (it == lru.end()) {
      return false;
    }
    lru.splice(lru.begin(), lru, it);
    return true;
  }
  static void Fill(std::list<uint64_t>& lru, uint64_t page, uint32_t capacity) {
    lru.push_front(page);
    if (lru.size() > capacity) {
      lru.pop_back();
    }
  }

  TlbParams p_;
  std::list<uint64_t> l1_;
  std::vector<std::list<uint64_t>> l2_sets_;
  uint64_t walks_ = 0;
};

TEST(Tlb, MatchesBruteForceLru) {
  TlbParams tiny;
  tiny.l1_entries = 4;
  tiny.l2_entries = 16;  // 8 sets x 2 ways.
  tiny.l2_ways = 2;
  for (const TlbParams& p : {TlbParams{}, tiny}) {
    Tlb tlb(p);
    ReferenceTlb ref(p);
    XorShift next{0x243f6a8885a308d3ull + p.l1_entries};
    // Hot pages that fit the L1, pages that overflow it into the L2, and a
    // wide range that overflows both; revisits keep every level busy.
    const uint64_t hot = p.l1_entries - 1;
    const uint64_t warm = p.l2_entries;
    const uint64_t wide = p.l2_entries * 16;
    for (int i = 0; i < 200000; ++i) {
      const uint64_t kind = next() % 10;
      const uint64_t page = kind < 5 ? next() % hot : kind < 8 ? next() % warm : next() % wide;
      ASSERT_EQ(tlb.Translate(page << asfcommon::kPageShift), ref.Translate(page))
          << "access " << i << " page " << page;
    }
    EXPECT_EQ(tlb.walks(), ref.walks());
  }
}

// --- Per-line/per-page state table --------------------------------------------

// One byte per field: the table's host memory is four bytes per line.
static_assert(sizeof(LineState) == 4);

// StateTable against std::map/std::set references, on keys that span several
// chunks, their edges and the top of the address space.
TEST(StateTable, MatchesMapReference) {
  constexpr uint64_t kChunkLines = StateTable::kChunkBytes >> asfcommon::kCacheLineShift;
  constexpr uint64_t kChunkPages = StateTable::kChunkBytes >> asfcommon::kPageShift;
  StateTable table;
  std::map<uint64_t, LineState> lines;
  std::set<uint64_t> pages;
  XorShift next{0x13198a2e03707344ull};
  constexpr uint64_t kTopLine = ~uint64_t{0} >> asfcommon::kCacheLineShift;
  constexpr uint64_t kTopPage = ~uint64_t{0} >> asfcommon::kPageShift;
  // A key near a quarter mark (edges included) of one of four chunks, or at
  // the top of the space.
  auto pick = [&next](uint64_t per_chunk, uint64_t top) {
    if (next() % 16 == 0) {
      return top - next() % 8;
    }
    return (next() % 4 * 3 + 1) * per_chunk + next() % 4 * (per_chunk / 4) + next() % 64 - 32;
  };
  for (int i = 0; i < 50000; ++i) {
    const uint64_t op = next() % 4;
    if (op == 0) {
      const uint64_t line = pick(kChunkLines, kTopLine);
      const uint64_t bits = next();
      const LineState v{static_cast<uint8_t>(bits), static_cast<uint8_t>(bits >> 8),
                        static_cast<uint8_t>(bits >> 16), static_cast<uint8_t>(bits >> 24)};
      table.Line(line) = v;
      lines[line] = v;
    } else if (op == 1) {
      const uint64_t line = pick(kChunkLines, kTopLine);
      const auto it = lines.find(line);
      const LineState want = it == lines.end() ? LineState{} : it->second;
      ASSERT_EQ(table.Line(line).sharers, want.sharers) << "line " << line;
      ASSERT_EQ(table.Line(line).owner, want.owner) << "line " << line;
      ASSERT_EQ(table.Line(line).readers, want.readers) << "line " << line;
      ASSERT_EQ(table.Line(line).writer, want.writer) << "line " << line;
    } else if (op == 2) {
      const uint64_t page = pick(kChunkPages, kTopPage);
      ASSERT_EQ(table.MarkPresent(page), pages.insert(page).second) << "page " << page;
    } else {
      const uint64_t first = pick(kChunkPages, kTopPage);
      const uint64_t last = std::min(kTopPage, first + next() % 200);
      table.MarkPresent(first, last);
      for (uint64_t pg = first; pg <= last; ++pg) {
        pages.insert(pg);
      }
    }
  }
  for (uint64_t page : pages) {
    EXPECT_FALSE(table.MarkPresent(page)) << "page " << page;
  }
}

class MemorySystemTest : public ::testing::Test {
 protected:
  MemorySystemTest() : mem_(4, Params()) { mem_.PretouchPages(0, 1ull << 30); }

  static MemParams Params() {
    MemParams p;
    return p;
  }

  MemorySystem mem_;
};

TEST_F(MemorySystemTest, ColdLoadHitsRamThenL1) {
  MemResult r1 = mem_.Access(0, 0x10000, 8, false);
  EXPECT_GE(r1.latency, Params().ram_latency);
  MemResult r2 = mem_.Access(0, 0x10000, 8, false);
  EXPECT_EQ(r2.latency, Params().l1_latency);
}

TEST_F(MemorySystemTest, SharedReadThenRemoteHit) {
  mem_.Access(0, 0x20000, 8, false);  // Core 0 loads (RAM).
  mem_.Access(1, 0x20040, 8, false);  // Warm core 1's TLB for the page.
  MemResult r = mem_.Access(1, 0x20000, 8, false);  // Core 1: L3 hit.
  EXPECT_EQ(r.latency, Params().l3_latency);
}

TEST_F(MemorySystemTest, StoreInvalidatesRemoteCopies) {
  mem_.Access(0, 0x30000, 8, false);
  mem_.Access(1, 0x30000, 8, false);
  EXPECT_TRUE(mem_.L1Holds(0, 0x30000 >> 6));
  EXPECT_TRUE(mem_.L1Holds(1, 0x30000 >> 6));
  mem_.Access(0, 0x30000, 8, true);  // Core 0 writes: invalidate core 1.
  EXPECT_FALSE(mem_.L1Holds(1, 0x30000 >> 6));
  // Core 1 re-load now forwards from core 0 (dirty remote).
  MemResult r = mem_.Access(1, 0x30000, 8, false);
  EXPECT_EQ(r.latency, Params().remote_latency);
}

TEST_F(MemorySystemTest, ExclusiveStoreIsCheap) {
  mem_.Access(0, 0x40000, 8, true);  // Gains ownership.
  MemResult r = mem_.Access(0, 0x40000, 8, true);
  EXPECT_EQ(r.latency, Params().store_hit_latency);
}

TEST_F(MemorySystemTest, SharedStorePaysUpgrade) {
  mem_.Access(0, 0x50000, 8, false);
  mem_.Access(1, 0x50000, 8, false);  // Both share the line.
  MemResult r = mem_.Access(0, 0x50000, 8, true);
  EXPECT_EQ(r.latency, Params().upgrade_latency);
  EXPECT_EQ(mem_.stats(0).upgrades, 1u);
}

TEST_F(MemorySystemTest, LineSpanningAccessChargesBothLines) {
  // 8 bytes starting 4 bytes before a line boundary touch two lines.
  uint64_t addr = 0x60000 + 60;
  MemResult r = mem_.Access(0, addr, 8, false);
  EXPECT_GE(r.latency, 2 * Params().ram_latency);
}

TEST_F(MemorySystemTest, PageFaultChargedOnceAndReported) {
  MemParams p;
  MemorySystem mem(1, p);  // No pretouch.
  MemResult r1 = mem.Access(0, 0x123456, 8, false);
  EXPECT_TRUE(r1.page_fault);
  EXPECT_GE(r1.latency, p.page_fault_cycles);
  MemResult r2 = mem.Access(0, 0x123458, 8, false);
  EXPECT_FALSE(r2.page_fault);
}

class DropRecorder : public MemEventListener {
 public:
  void OnL1LineDropped(uint32_t core, uint64_t line) override {
    drops.emplace_back(core, line);
  }
  std::vector<std::pair<uint32_t, uint64_t>> drops;
};

TEST_F(MemorySystemTest, ListenerSeesAssociativityEvictions) {
  DropRecorder rec;
  mem_.SetListener(&rec);
  // L1: 64 KB 2-way => 512 sets. Three lines mapping to the same set:
  // line numbers 0, 512, 1024 (addresses 0, 512*64, 1024*64).
  mem_.Access(0, 0, 8, false);
  mem_.Access(0, 512 * 64, 8, false);
  mem_.Access(0, 1024 * 64, 8, false);
  bool saw_evict = false;
  for (auto& [core, line] : rec.drops) {
    if (core == 0 && (line == 0 || line == 512)) {
      saw_evict = true;
    }
  }
  EXPECT_TRUE(saw_evict);
}

TEST_F(MemorySystemTest, ListenerSeesRemoteInvalidation) {
  DropRecorder rec;
  mem_.SetListener(&rec);
  mem_.Access(1, 0x80000, 8, false);
  mem_.Access(0, 0x80000, 8, true);
  bool saw = false;
  for (auto& [core, line] : rec.drops) {
    if (core == 1 && line == (0x80000 >> 6)) {
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

// --- Last-line/last-page memo fast path -------------------------------------

// Bit-identity gate at the unit level: a long randomized access mix replayed
// with the memo disabled must produce exactly the same latencies, fault
// reports and statistics, access by access. The mix deliberately includes
// repeat same-line accesses (memo hits), line/page crossings, remote
// invalidations and dirty-forward downgrades (memo kills).
TEST(MemFastPathTest, RandomizedMixIsBitIdenticalWithMemoDisabled) {
  MemParams p;
  MemorySystem fast(4, p);
  MemorySystem::SetFastPathForTesting(false);
  MemorySystem slow(4, p);
  MemorySystem::SetFastPathForTesting(true);
  ASSERT_TRUE(fast.fast_path_enabled());
  ASSERT_FALSE(slow.fast_path_enabled());
  fast.PretouchPages(0x100000, 1 << 20);
  slow.PretouchPages(0x100000, 1 << 20);

  uint64_t state = 0xdeadbeefcafef00dull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  uint64_t prev_addr = 0x100000;
  for (int i = 0; i < 30000; ++i) {
    uint32_t core = next() % 4;
    bool is_write = next() % 4 == 0;
    uint64_t addr;
    uint32_t kind = next() % 100;
    if (kind < 55) {
      addr = prev_addr;  // Repeat access: the memo's bread and butter.
    } else if (kind < 75) {
      addr = 0x100000 + (next() % (1 << 14));  // Small hot region (sharing).
    } else if (kind < 90) {
      addr = 0x100000 + (next() % (1 << 20));  // Whole pretouched arena.
    } else {
      addr = 0x40000000 + (next() % (1 << 16));  // Faulting region.
    }
    uint32_t size = 1u << (next() % 4);  // 1..8 bytes; may cross lines.
    if (next() % 50 == 0) {
      addr = (addr & ~63ull) + 60;  // Force a line-crossing access.
    }
    prev_addr = addr;
    MemResult rf = fast.Access(core, addr, size, is_write);
    MemResult rs = slow.Access(core, addr, size, is_write);
    ASSERT_EQ(rf.latency, rs.latency) << "access " << i;
    ASSERT_EQ(rf.page_fault, rs.page_fault) << "access " << i;
  }
  for (uint32_t c = 0; c < 4; ++c) {
    const MemStats& sf = fast.stats(c);
    const MemStats& ss = slow.stats(c);
    EXPECT_EQ(sf.loads, ss.loads);
    EXPECT_EQ(sf.stores, ss.stores);
    EXPECT_EQ(sf.l1_hits, ss.l1_hits);
    EXPECT_EQ(sf.l2_hits, ss.l2_hits);
    EXPECT_EQ(sf.l3_hits, ss.l3_hits);
    EXPECT_EQ(sf.remote_hits, ss.remote_hits);
    EXPECT_EQ(sf.ram_accesses, ss.ram_accesses);
    EXPECT_EQ(sf.upgrades, ss.upgrades);
    EXPECT_EQ(sf.page_faults, ss.page_faults);
  }
  // The fast path must actually have fired (and only in the fast system).
  EXPECT_GT(fast.fast_path_stats().line_hits, 0u);
  EXPECT_EQ(slow.fast_path_stats().line_hits, 0u);
  EXPECT_EQ(slow.fast_path_stats().page_hits, 0u);
}

// The same gate over the per-line/per-page state table's chunk layout:
// addresses around three chunk edges (so accesses straddle lines, pages and
// chunks at once), FlushLine, and PretouchPages calls that include empty
// ranges and pages that already faulted. Page faults are also checked
// against a std::set of present pages.
TEST(MemFastPathTest, ChunkEdgeMixIsBitIdenticalWithMemoDisabled) {
  MemParams p;
  MemorySystem fast(4, p);
  MemorySystem::SetFastPathForTesting(false);
  MemorySystem slow(4, p);
  MemorySystem::SetFastPathForTesting(true);
  std::set<uint64_t> present;
  auto pretouch = [&](uint64_t addr, uint64_t bytes) {
    fast.PretouchPages(addr, bytes);
    slow.PretouchPages(addr, bytes);
    const uint64_t last = asfcommon::PageOf(addr + (bytes == 0 ? 0 : bytes - 1));
    for (uint64_t page = asfcommon::PageOf(addr); page <= last; ++page) {
      present.insert(page);
    }
  };
  constexpr uint64_t kEdges[] = {1 * StateTable::kChunkBytes, 2 * StateTable::kChunkBytes,
                                 5 * StateTable::kChunkBytes};
  constexpr uint64_t kReach = 64 * 1024;  // Either side of an edge.
  pretouch(kEdges[0] - kReach / 4, kReach / 2);  // Spans the first edge.
  pretouch(kEdges[1] + 0x3000, 0);                // One page.

  XorShift next{0xa4093822299f31d0ull};
  uint64_t prev_addr = kEdges[0];
  for (int i = 0; i < 40000; ++i) {
    const uint64_t edge = kEdges[next() % 3];
    const uint32_t kind = next() % 100;
    if (kind < 2) {
      const uint64_t line = asfcommon::LineOf(edge - kReach + next() % (2 * kReach));
      fast.FlushLine(line);
      slow.FlushLine(line);
      continue;
    }
    if (kind < 3) {
      // Often a page that already faulted; sometimes zero bytes.
      pretouch(edge - kReach + next() % (2 * kReach), next() % 3 * 0x1800);
      continue;
    }
    uint64_t addr;
    uint32_t size = 1u << (next() % 4);
    if (kind < 50) {
      addr = prev_addr;
    } else if (kind < 55) {
      addr = edge - 4;  // Straddles a line, a page and a chunk.
      size = 8;
    } else if (kind < 80) {
      addr = edge - 2048 + next() % 4096;  // Hot lines at the edge.
    } else {
      addr = edge - kReach + next() % (2 * kReach);
    }
    prev_addr = addr;
    const uint32_t core = next() % 4;
    const bool is_write = next() % 3 == 0;
    bool fault = false;
    for (uint64_t page = asfcommon::PageOf(addr); page <= asfcommon::PageOf(addr + size - 1);
         ++page) {
      fault |= present.insert(page).second;
    }
    const MemResult rf = fast.Access(core, addr, size, is_write);
    const MemResult rs = slow.Access(core, addr, size, is_write);
    ASSERT_EQ(rf.latency, rs.latency) << "access " << i;
    ASSERT_EQ(rf.page_fault, rs.page_fault) << "access " << i;
    ASSERT_EQ(rf.page_fault, fault) << "access " << i << " addr " << addr;
  }
  const MemStats sf = fast.TotalStats();
  const MemStats ss = slow.TotalStats();
  EXPECT_EQ(sf.l1_hits, ss.l1_hits);
  EXPECT_EQ(sf.l2_hits, ss.l2_hits);
  EXPECT_EQ(sf.l3_hits, ss.l3_hits);
  EXPECT_EQ(sf.remote_hits, ss.remote_hits);
  EXPECT_EQ(sf.ram_accesses, ss.ram_accesses);
  EXPECT_EQ(sf.upgrades, ss.upgrades);
  EXPECT_EQ(sf.page_faults, ss.page_faults);
  EXPECT_GT(sf.page_faults, 0u);
  EXPECT_GT(sf.remote_hits, 0u);
  EXPECT_GT(fast.fast_path_stats().line_hits, 0u);
}

// A repeat load is memoized; a remote store must kill the memo so the next
// local access sees the real (remote-forward) latency, not a stale L1 hit.
TEST(MemFastPathTest, RemoteStoreKillsLineMemo) {
  MemParams p;
  MemorySystem mem(2, p);
  mem.PretouchPages(0, 1 << 20);
  mem.Access(0, 0x1000, 8, false);
  EXPECT_EQ(mem.Access(0, 0x1000, 8, false).latency, p.l1_latency);  // Memo hit.
  mem.Access(1, 0x1000, 8, true);  // Remote store invalidates core 0.
  EXPECT_EQ(mem.Access(0, 0x1000, 8, false).latency, p.remote_latency);
}

// An owned line is store-memoized; a remote *load* downgrades ownership, so
// the next local store must pay the upgrade, not the memoized store hit.
TEST(MemFastPathTest, RemoteLoadDowngradeKillsWritableMemo) {
  MemParams p;
  MemorySystem mem(2, p);
  mem.PretouchPages(0, 1 << 20);
  mem.Access(0, 0x2000, 8, true);  // Core 0 owns the line dirty.
  EXPECT_EQ(mem.Access(0, 0x2000, 8, true).latency, p.store_hit_latency);
  mem.Access(1, 0x2000, 8, false);  // Dirty forward; core 0 downgrades.
  EXPECT_EQ(mem.Access(0, 0x2000, 8, true).latency, p.upgrade_latency);
  EXPECT_EQ(mem.stats(0).upgrades, 1u);
}

TEST(MemFastPathTest, FlushLineKillsMemo) {
  MemParams p;
  MemorySystem mem(1, p);
  mem.PretouchPages(0, 1 << 20);
  mem.Access(0, 0x3000, 8, false);
  mem.FlushLine(0x3000 >> 6);
  // Without the DropFromCore memo kill this would be a (wrong) 3-cycle hit.
  EXPECT_GT(mem.Access(0, 0x3000, 8, false).latency, p.l1_latency);
}

// FlushLine drops the line from the caches and clears its coherence state;
// the speculative readers and writer in the same record belong to the ASF
// conflict directory and stay.
TEST(MemFastPathTest, FlushLineKeepsSpeculativeBits) {
  MemParams p;
  MemorySystem mem(2, p);
  mem.PretouchPages(0, 1 << 20);
  const uint64_t line = 0x4000 >> 6;
  mem.Access(0, 0x4000, 8, false);
  mem.Access(1, 0x4000, 8, true);
  mem.state().Line(line).readers = 0b01;
  mem.state().Line(line).writer = 0b10;
  mem.FlushLine(line);
  EXPECT_EQ(mem.state().Line(line).sharers, 0u);
  EXPECT_EQ(mem.state().Line(line).owner, 0u);
  EXPECT_EQ(mem.state().Line(line).readers, 0b01u);
  EXPECT_EQ(mem.state().Line(line).writer, 0b10u);
}

// --- Pretouched page ranges --------------------------------------------------

TEST(MemPretouchTest, RangesMergeAndSuppressFaults) {
  MemParams p;
  MemorySystem mem(1, p);
  // Overlapping and adjacent pretouch calls collapse into one range.
  mem.PretouchPages(0x10000, 0x4000);
  mem.PretouchPages(0x12000, 0x4000);  // Overlaps the first.
  mem.PretouchPages(0x16000, 0x1000);  // Adjacent to the merged range.
  EXPECT_FALSE(mem.Access(0, 0x10000, 8, false).page_fault);
  EXPECT_FALSE(mem.Access(0, 0x15ff8, 8, false).page_fault);
  EXPECT_FALSE(mem.Access(0, 0x16800, 8, false).page_fault);
  EXPECT_TRUE(mem.Access(0, 0x17000, 8, false).page_fault);   // Past the range.
  EXPECT_TRUE(mem.Access(0, 0xf000, 8, false).page_fault);    // Before it.
  EXPECT_FALSE(mem.Access(0, 0xf008, 8, false).page_fault);   // Faulted above.
}

TEST(MemPretouchTest, HugePretouchIsCheap) {
  MemParams p;
  MemorySystem mem(1, p);
  // 1 TiB of pretouch costs one bit per page, set a 64-bit word at a time
  // (32 MiB of bits) — per-page inserts into a hash set would OOM or time out.
  mem.PretouchPages(0, 1ull << 40);
  EXPECT_FALSE(mem.Access(0, 1ull << 39, 8, false).page_fault);
}

// --- MemParams validation -----------------------------------------------------

TEST(MemParamsDeathTest, ZeroLatencyAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MemParams p;
        p.l1_latency = 0;
        MemorySystem mem(1, p);
      },
      "nonzero");
}

TEST(MemParamsDeathTest, NonMonotoneHierarchyAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MemParams p;
        p.l2_latency = p.l3_latency + 100;
        MemorySystem mem(1, p);
      },
      "monotone");
}

TEST(MemParamsDeathTest, ZeroPageFaultCostAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MemParams p;
        p.page_fault_cycles = 0;
        MemorySystem mem(1, p);
      },
      "page_fault_cycles");
}

}  // namespace
}  // namespace asfmem
