// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Unit tests for the locked-line buffer and the AsfContext state machine.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <random>
#include <vector>

#include "src/asf/asf_context.h"
#include "src/asf/conflict_directory.h"
#include "src/asf/llb.h"

namespace asf {
namespace {

using asfcommon::AbortCause;
using asfcommon::kCacheLineBytes;

// A line-aligned chunk of host memory for backup/restore tests.
struct alignas(64) LineBuf {
  uint8_t bytes[kCacheLineBytes];
  uint64_t LineNumber() const {
    return reinterpret_cast<uint64_t>(bytes) >> asfcommon::kCacheLineShift;
  }
};

TEST(Llb, CapacityEnforced) {
  Llb llb(4);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(llb.AddRead(1000 + i));
  }
  EXPECT_TRUE(llb.Full());
  EXPECT_FALSE(llb.AddRead(2000));
  EXPECT_TRUE(llb.AddRead(1001));  // Already present: no growth.
  EXPECT_EQ(llb.size(), 4u);
}

TEST(Llb, WriteBackupAndRestore) {
  LineBuf buf;
  std::memset(buf.bytes, 0xAB, sizeof(buf.bytes));
  Llb llb(8);
  ASSERT_TRUE(llb.AddWrite(buf.LineNumber()));
  std::memset(buf.bytes, 0xCD, sizeof(buf.bytes));  // Speculative modification.
  llb.RestoreAll();
  for (uint8_t b : buf.bytes) {
    EXPECT_EQ(b, 0xAB);
  }
  EXPECT_EQ(llb.size(), 0u);
}

TEST(Llb, CommitKeepsSpeculativeValues) {
  LineBuf buf;
  std::memset(buf.bytes, 0x11, sizeof(buf.bytes));
  Llb llb(8);
  ASSERT_TRUE(llb.AddWrite(buf.LineNumber()));
  std::memset(buf.bytes, 0x22, sizeof(buf.bytes));
  llb.Clear();  // Commit path.
  for (uint8_t b : buf.bytes) {
    EXPECT_EQ(b, 0x22);
  }
}

TEST(Llb, ReadUpgradedToWriteBacksUpOnce) {
  LineBuf buf;
  std::memset(buf.bytes, 0x55, sizeof(buf.bytes));
  Llb llb(8);
  ASSERT_TRUE(llb.AddRead(buf.LineNumber()));
  EXPECT_FALSE(llb.HasWrittenLine(buf.LineNumber()));
  ASSERT_TRUE(llb.AddWrite(buf.LineNumber()));
  EXPECT_TRUE(llb.HasWrittenLine(buf.LineNumber()));
  buf.bytes[0] = 0x66;
  // Second AddWrite must not re-snapshot the modified content.
  ASSERT_TRUE(llb.AddWrite(buf.LineNumber()));
  buf.bytes[1] = 0x77;
  llb.RestoreAll();
  EXPECT_EQ(buf.bytes[0], 0x55);
  EXPECT_EQ(buf.bytes[1], 0x55);
}

TEST(Llb, ReleaseDropsReadButNotWrite) {
  LineBuf buf;
  Llb llb(2);
  ASSERT_TRUE(llb.AddRead(12345));
  ASSERT_TRUE(llb.AddWrite(buf.LineNumber()));
  llb.Release(12345);
  EXPECT_FALSE(llb.HasLine(12345));
  llb.Release(buf.LineNumber());  // Hint ignored for written lines.
  EXPECT_TRUE(llb.HasWrittenLine(buf.LineNumber()));
  // The released slot is reusable.
  EXPECT_TRUE(llb.AddRead(777));
}

TEST(Llb, ReleaseMiddleEntryKeepsIndexConsistent) {
  Llb llb(8);
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(llb.AddRead(100 + i));
  }
  llb.Release(102);
  EXPECT_FALSE(llb.HasLine(102));
  for (uint64_t i : {100, 101, 103, 104}) {
    EXPECT_TRUE(llb.HasLine(i)) << i;
  }
  EXPECT_EQ(llb.size(), 4u);
  // Re-adding and releasing again exercises the swap-with-last path.
  ASSERT_TRUE(llb.AddRead(102));
  llb.Release(100);
  EXPECT_TRUE(llb.HasLine(102));
  EXPECT_FALSE(llb.HasLine(100));
}

// Random AddRead/AddWrite/Release/Clear/RestoreAll sequences against a
// std::map reference (line -> written), at the smallest, the LLB-8 and the
// LLB-256 capacity. The line pool is half again as large as the capacity, so
// sequences overflow and release entries from the middle of the buffer. A
// successful AddWrite is followed by a speculative store to the line, and
// RestoreAll must bring host memory back to the shadow copy.
TEST(Llb, MatchesReferenceModel) {
  for (uint32_t capacity : {2u, 8u, 256u}) {
    SCOPED_TRACE(capacity);
    const size_t pool = capacity + capacity / 2 + 2;
    std::vector<LineBuf> mem(pool);
    std::vector<LineBuf> shadow(pool);  // Expected host memory.
    std::mt19937_64 rng(capacity);
    for (size_t i = 0; i < pool; ++i) {
      for (uint8_t& b : mem[i].bytes) {
        b = static_cast<uint8_t>(rng());
      }
      shadow[i] = mem[i];
    }
    Llb llb(capacity);
    std::map<uint64_t, bool> ref;        // Line -> written.
    std::map<size_t, LineBuf> backups;   // Pool index -> pre-image.
    const uint64_t epoch = uint64_t{capacity} * 8;  // About 4x capacity ops per Clear/RestoreAll.
    uint64_t overflows = 0;
    uint64_t middle_releases = 0;  // Releases of a line other than the newest.
    uint64_t last_added = 0;
    for (uint32_t step = 0; step < 6000 + 40 * capacity; ++step) {
      const size_t idx = rng() % pool;
      const uint64_t line = mem[idx].LineNumber();
      const uint64_t op = rng() % (epoch + 2);
      auto it = ref.find(line);
      const bool fits = it != ref.end() || ref.size() < capacity;
      if (op == epoch) {
        llb.Clear();
        ref.clear();
        backups.clear();
      } else if (op == epoch + 1) {
        llb.RestoreAll();
        for (const auto& [i, pre_image] : backups) {
          shadow[i] = pre_image;
        }
        ref.clear();
        backups.clear();
        ASSERT_EQ(std::memcmp(mem.data(), shadow.data(), pool * sizeof(LineBuf)), 0) << step;
      } else if (op % 3 == 0) {
        ASSERT_EQ(llb.AddRead(line), fits) << step;
        overflows += fits ? 0 : 1;
        if (fits && it == ref.end()) {
          ref.emplace(line, false);
          last_added = line;
        }
      } else if (op % 3 == 1) {
        ASSERT_EQ(llb.AddWrite(line), fits) << step;
        overflows += fits ? 0 : 1;
        if (fits) {
          if (it == ref.end()) {
            last_added = line;
          }
          if (!ref[line]) {
            backups[idx] = mem[idx];
          }
          ref[line] = true;
          mem[idx].bytes[rng() % kCacheLineBytes] ^= static_cast<uint8_t>(rng() | 1);
          shadow[idx] = mem[idx];
        }
      } else {
        const bool drops = it != ref.end() && !it->second;
        if (drops && line != last_added) {
          ++middle_releases;
        }
        ASSERT_EQ(llb.Release(line), drops) << step;
        if (drops) {
          ref.erase(it);
        }
      }
      uint32_t written = 0;
      for (const auto& [l, w] : ref) {
        written += w ? 1 : 0;
      }
      ASSERT_EQ(llb.size(), ref.size()) << step;
      ASSERT_EQ(llb.written_count(), written) << step;
      for (size_t i = 0; i < pool; ++i) {
        const uint64_t l = mem[i].LineNumber();
        auto r = ref.find(l);
        ASSERT_EQ(llb.HasLine(l), r != ref.end()) << step;
        ASSERT_EQ(llb.HasWrittenLine(l), r != ref.end() && r->second) << step;
      }
      std::map<uint64_t, bool> visited;
      llb.ForEachLine([&](uint64_t l, bool w) { EXPECT_TRUE(visited.emplace(l, w).second); });
      ASSERT_EQ(visited, ref) << step;
    }
    EXPECT_GT(overflows, 0u);
    EXPECT_GT(middle_releases, 0u);
  }
}

TEST(AsfContext, FlatNestingCommits) {
  ConflictDirectory dir(1, /*gate_enabled=*/true);
  AsfContext ctx(0, AsfVariant::Llb256(), dir);
  EXPECT_TRUE(ctx.Speculate());
  EXPECT_TRUE(ctx.Speculate());  // Nested.
  EXPECT_TRUE(ctx.AddRead(42));
  EXPECT_FALSE(ctx.CommitTop());  // Inner commit: region stays active.
  EXPECT_TRUE(ctx.active());
  EXPECT_TRUE(ctx.HasRead(42));  // Nested protections persist to outermost end.
  EXPECT_TRUE(ctx.CommitTop());
  EXPECT_FALSE(ctx.active());
  EXPECT_FALSE(ctx.HasRead(42));
}

TEST(AsfContext, NestingDepthLimit) {
  ConflictDirectory dir(1, /*gate_enabled=*/true);
  AsfContext ctx(0, AsfVariant::Llb8(), dir);
  for (uint32_t i = 0; i < kMaxNestingDepth; ++i) {
    EXPECT_TRUE(ctx.Speculate());
  }
  EXPECT_FALSE(ctx.Speculate());
}

TEST(AsfContext, AbortInsideNestingRollsBackWholeRegion) {
  LineBuf buf;
  std::memset(buf.bytes, 0x10, sizeof(buf.bytes));
  ConflictDirectory dir(1, /*gate_enabled=*/true);
  AsfContext ctx(0, AsfVariant::Llb8(), dir);
  ASSERT_TRUE(ctx.Speculate());
  ASSERT_TRUE(ctx.Speculate());
  ASSERT_TRUE(ctx.AddWrite(buf.LineNumber()));
  buf.bytes[3] = 0x99;
  ctx.Abort(AbortCause::kContention);  // Abort in nested region: whole region dies.
  EXPECT_FALSE(ctx.active());
  EXPECT_EQ(buf.bytes[3], 0x10);
  EXPECT_EQ(ctx.stats().aborts[static_cast<size_t>(AbortCause::kContention)], 1u);
}

TEST(AsfContext, ConflictMatrix) {
  LineBuf wbuf;  // AddWrite snapshots host memory, so use a real line.
  // Ungated, so every Resolve reads the bits, also after the abort.
  ConflictDirectory dir(2, /*gate_enabled=*/false);
  AsfContext ctx(0, AsfVariant::Llb256(), dir);
  ASSERT_TRUE(ctx.Speculate());
  ASSERT_TRUE(ctx.AddRead(10));
  ASSERT_TRUE(ctx.AddWrite(wbuf.LineNumber()));
  // Core 1 is the remote requester; a victim set naming core 0 is a conflict.
  // Remote read vs our read: compatible. Remote write vs our read: conflict.
  EXPECT_EQ(dir.Resolve(10, 10, /*write_like=*/false, 1), 0u);
  EXPECT_EQ(dir.Resolve(10, 10, /*write_like=*/true, 1), 1u);
  // Any remote access to our written line conflicts (strong isolation).
  EXPECT_EQ(dir.Resolve(wbuf.LineNumber(), wbuf.LineNumber(), false, 1), 1u);
  EXPECT_EQ(dir.Resolve(wbuf.LineNumber(), wbuf.LineNumber(), true, 1), 1u);
  // Unrelated lines never conflict.
  EXPECT_EQ(dir.Resolve(12, 12, true, 1), 0u);
  ctx.Abort(AbortCause::kContention);
  // The abort tore the records down.
  EXPECT_EQ(dir.Resolve(10, 10, true, 1), 0u);
  EXPECT_EQ(dir.Resolve(wbuf.LineNumber(), wbuf.LineNumber(), false, 1), 0u);
}

TEST(AsfContext, L1ReadSetVariantDropCausesCapacitySignal) {
  ConflictDirectory dir(1, /*gate_enabled=*/true);
  AsfContext ctx(0, AsfVariant::Llb8WithL1(), dir);
  ASSERT_TRUE(ctx.Speculate());
  ASSERT_TRUE(ctx.AddRead(500));
  EXPECT_TRUE(ctx.OnL1Drop(500));   // Tracked read line displaced: signal.
  EXPECT_FALSE(ctx.OnL1Drop(501));  // Untracked line: no signal.
  ctx.Abort(AbortCause::kCapacity);
  EXPECT_FALSE(ctx.OnL1Drop(500));  // Inactive region: no signal.
}

TEST(AsfContext, L1ReadSetWriteSubsumesReadTracking) {
  LineBuf buf;
  ConflictDirectory dir(1, /*gate_enabled=*/true);
  AsfContext ctx(0, AsfVariant::Llb8WithL1(), dir);
  ASSERT_TRUE(ctx.Speculate());
  ASSERT_TRUE(ctx.AddRead(buf.LineNumber()));
  ASSERT_TRUE(ctx.AddWrite(buf.LineNumber()));
  // Once in the LLB write set, an L1 displacement must not abort the region.
  EXPECT_FALSE(ctx.OnL1Drop(buf.LineNumber()));
  EXPECT_TRUE(ctx.HasWrite(buf.LineNumber()));
  ctx.Abort(AbortCause::kContention);
}

TEST(AsfContext, LlbSharedBetweenReadsAndWrites) {
  // In the pure-LLB variant, reads and writes share the capacity.
  ConflictDirectory dir(1, /*gate_enabled=*/true);
  AsfContext ctx(0, AsfVariant::Llb8(), dir);
  ASSERT_TRUE(ctx.Speculate());
  for (uint64_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(ctx.AddRead(100 + i));
  }
  LineBuf a;
  LineBuf b;
  LineBuf c;
  EXPECT_TRUE(ctx.AddWrite(a.LineNumber()));
  EXPECT_TRUE(ctx.AddWrite(b.LineNumber()));
  EXPECT_FALSE(ctx.AddWrite(c.LineNumber()));  // 9th line: over capacity.
  ctx.Abort(AbortCause::kCapacity);
}

TEST(AsfContext, Asf1FreezesSetInAtomicPhase) {
  // ASF1 semantics (paper Sec. 6): once a region stores speculatively, the
  // protected set cannot grow; ASF2 (the default) allows it.
  LineBuf w;
  ConflictDirectory dir(1, /*gate_enabled=*/true);
  AsfContext ctx(0, AsfVariant::Asf1Llb256(), dir);
  ASSERT_TRUE(ctx.Speculate());
  EXPECT_TRUE(ctx.AddRead(100));
  EXPECT_FALSE(ctx.in_atomic_phase());
  EXPECT_TRUE(ctx.AddWrite(w.LineNumber()));  // Enters the atomic phase.
  EXPECT_TRUE(ctx.in_atomic_phase());
  EXPECT_FALSE(ctx.AddRead(200));             // Expansion now fails...
  EXPECT_TRUE(ctx.AddRead(100));              // ...but existing lines are fine,
  EXPECT_TRUE(ctx.AddWrite(w.LineNumber()));  // including re-writes.
  ctx.Abort(AbortCause::kCapacity);
  // A fresh region can grow again.
  ASSERT_TRUE(ctx.Speculate());
  EXPECT_FALSE(ctx.in_atomic_phase());
  EXPECT_TRUE(ctx.AddRead(300));
  EXPECT_TRUE(ctx.CommitTop());
}

TEST(AsfContext, Asf2AllowsDynamicExpansion) {
  LineBuf w;
  ConflictDirectory dir(1, /*gate_enabled=*/true);
  AsfContext ctx(0, AsfVariant::Llb256(), dir);
  ASSERT_TRUE(ctx.Speculate());
  ASSERT_TRUE(ctx.AddWrite(w.LineNumber()));
  EXPECT_TRUE(ctx.AddRead(200));  // ASF2: fine after a speculative store.
  EXPECT_TRUE(ctx.CommitTop());
}

TEST(AsfContext, GuaranteedMinimumCapacity) {
  // The architectural forward-progress floor: four lines always fit.
  for (auto variant : {AsfVariant::Llb8(), AsfVariant::Llb256(), AsfVariant::Llb8WithL1(),
                       AsfVariant::Llb256WithL1()}) {
    ConflictDirectory dir(1, /*gate_enabled=*/true);
    AsfContext ctx(0, variant, dir);
    ASSERT_TRUE(ctx.Speculate());
    LineBuf bufs[kGuaranteedCapacityLines];
    for (auto& b : bufs) {
      EXPECT_TRUE(ctx.AddWrite(b.LineNumber())) << variant.Name();
    }
    EXPECT_TRUE(ctx.CommitTop());
  }
}

}  // namespace
}  // namespace asf
