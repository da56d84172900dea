// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Conflict-directory coherence tests.
//
// The directory-based conflict scan replaced the Machine's all-contexts sweep
// for performance; its one non-negotiable property is *semantic equivalence*:
// for every access, Resolve() must return exactly the victim set a brute-force
// ConflictsWith() scan over every other context would, whatever interleaving
// of accesses, commits, aborts, releases, and L1 displacements preceded it.
// The randomized walk below drives real AsfContexts (all three variant
// classes) through thousands of mixed events, checking that equivalence on
// every access and auditing the directory's bits on every line the walk can
// touch against the contexts' tracked lines at regular intervals — with the
// active-speculator gate both enabled and disabled, since the gate must be
// invisible.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/asf/asf_context.h"
#include "src/asf/conflict_directory.h"
#include "src/common/random.h"

namespace asf {
namespace {

using asfcommon::AbortCause;
using asfcommon::kCacheLineBytes;

// ---------------------------------------------------------------------------
// Directory unit tests.
// ---------------------------------------------------------------------------

TEST(ConflictDirectory, ReaderAndWriterRecords) {
  ConflictDirectory dir(4, /*gate_enabled=*/true);
  dir.OnActivate(0);
  dir.OnActivate(1);
  dir.AddReader(0, 100);
  dir.AddReader(1, 100);
  EXPECT_EQ(dir.Record(100).readers, 0b11u);
  EXPECT_EQ(dir.Record(100).writer, 0u);
  EXPECT_EQ(ConflictDirectory::Conflicting(dir.Record(100), /*write_like=*/true), 0b11u);
  EXPECT_EQ(ConflictDirectory::Conflicting(dir.Record(100), /*write_like=*/false), 0u);

  // Read-to-write upgrade by core 0 after core 1 dropped its reader bit.
  dir.DropReader(1, 100);
  dir.SetWriter(0, 100);
  EXPECT_EQ(dir.Record(100).readers, 0u);  // Own reader bit subsumed by the writer bit.
  EXPECT_EQ(dir.Record(100).writer, 0b01u);
  EXPECT_EQ(ConflictDirectory::Conflicting(dir.Record(100), /*write_like=*/false), 0b01u);

  // Teardown clears the line's bits.
  dir.RemoveLine(0, 100);
  EXPECT_EQ(dir.Record(100).readers, 0u);
  EXPECT_EQ(dir.Record(100).writer, 0u);
  dir.OnDeactivate(0);
  dir.OnDeactivate(1);
  EXPECT_EQ(dir.active_bitmap(), 0u);
}

// A Machine's directory keeps its bits in the memory model's line state,
// beside the coherence fields, which neither side may disturb.
TEST(ConflictDirectory, SharesLineStateWithCoherence) {
  asfmem::StateTable table;
  ConflictDirectory dir(4, /*gate_enabled=*/true, &table);
  table.Line(100).sharers = 0b1010;
  table.Line(100).owner = 2;
  dir.OnActivate(1);
  dir.OnActivate(3);
  dir.AddReader(1, 100);
  dir.AddReader(3, 100);
  EXPECT_EQ(table.Line(100).readers, 0b1010u);
  EXPECT_EQ(dir.Resolve(100, 100, /*write_like=*/true, 0), 0b1010u);
  dir.RemoveLine(1, 100);
  dir.RemoveLine(3, 100);
  EXPECT_EQ(table.Line(100).readers, 0u);
  EXPECT_EQ(table.Line(100).sharers, 0b1010u);
  EXPECT_EQ(table.Line(100).owner, 2u);
}

TEST(ConflictDirectory, ResolveMatrix) {
  ConflictDirectory dir(4, /*gate_enabled=*/false);
  dir.OnActivate(1);
  dir.OnActivate(2);
  dir.AddReader(1, 10);
  dir.SetWriter(2, 20);

  // Remote read vs reader: compatible. Remote write vs reader: conflict.
  EXPECT_EQ(dir.Resolve(10, 10, /*write_like=*/false, 0), 0u);
  EXPECT_EQ(dir.Resolve(10, 10, /*write_like=*/true, 0), uint64_t{1} << 1);
  // Any access to a written line conflicts with its writer.
  EXPECT_EQ(dir.Resolve(20, 20, false, 0), uint64_t{1} << 2);
  EXPECT_EQ(dir.Resolve(20, 20, true, 0), uint64_t{1} << 2);
  // The requester never victimizes itself.
  EXPECT_EQ(dir.Resolve(20, 20, true, 2), 0u);
  // A multi-line access accumulates victims across every touched line.
  EXPECT_EQ(dir.Resolve(10, 20, true, 0), (uint64_t{1} << 1) | (uint64_t{1} << 2));
  // Untracked lines never conflict.
  EXPECT_EQ(dir.Resolve(30, 30, true, 0), 0u);
}

TEST(ConflictDirectory, GateSkipsAndProbesCounted) {
  ConflictDirectory dir(4, /*gate_enabled=*/true);
  // No other speculator: resolution must not read anything.
  dir.OnActivate(0);
  EXPECT_EQ(dir.Resolve(10, 10, true, 0), 0u);
  EXPECT_EQ(dir.stats().gate_skips, 1u);
  EXPECT_EQ(dir.stats().probes, 0u);

  // Another speculator: one read per touched line.
  dir.OnActivate(3);
  dir.AddReader(3, 10);
  EXPECT_EQ(dir.Resolve(10, 11, true, 0), uint64_t{1} << 3);
  EXPECT_EQ(dir.Resolve(10, 10, false, 0), 0u);  // Reader vs reader.
  EXPECT_EQ(dir.stats().resolutions, 3u);
  EXPECT_EQ(dir.stats().probes, 3u);
  EXPECT_EQ(dir.stats().probe_hits, 2u);
  EXPECT_EQ(dir.stats().solo_fast_paths, 0u);
}

// ---------------------------------------------------------------------------
// Randomized equivalence walk.
// ---------------------------------------------------------------------------

constexpr uint32_t kCores = 6;
constexpr uint32_t kNumLines = 24;  // Small range so conflicts are frequent.
constexpr int kSteps = 3000;

// Real line-aligned host memory: AddWrite snapshots the line's pre-image via
// the host address `line << 6`, so written lines must be backed by a buffer.
struct alignas(64) LinePool {
  uint8_t bytes[kNumLines * kCacheLineBytes];
  uint64_t Line(uint32_t i) const {
    return (reinterpret_cast<uint64_t>(bytes) >> asfcommon::kCacheLineShift) + i;
  }
};

class Walk {
 public:
  Walk(const AsfVariant& variant, bool gate_enabled, uint64_t seed)
      : variant_(variant), dir_(kCores, gate_enabled), rng_(seed) {
    std::memset(pool_.bytes, 0, sizeof(pool_.bytes));
    for (uint32_t c = 0; c < kCores; ++c) {
      ctxs_.push_back(std::make_unique<AsfContext>(c, variant, dir_));
    }
  }

  void Run() {
    for (int step = 0; step < kSteps; ++step) {
      Step();
      if (step % 64 == 63) {
        AuditDirectory();
      }
    }
    // Wind down: every context commits or aborts, after which no line may
    // keep a bit.
    for (uint32_t c = 0; c < kCores; ++c) {
      if (!ctxs_[c]->active()) {
        continue;
      }
      if (rng_.NextPercent(50)) {
        while (!ctxs_[c]->CommitTop()) {
        }
      } else {
        AbortCore(c, AbortCause::kExplicitAbort);
      }
    }
    AuditDirectory();
    EXPECT_EQ(dir_.active_bitmap(), 0u);
    // Every abort the walk applied is accounted, by core and by cause.
    for (uint32_t c = 0; c < kCores; ++c) {
      EXPECT_EQ(ctxs_[c]->stats().aborts, expected_aborts_[c]) << "core " << c;
    }
  }

 private:
  static uint64_t Bit(uint32_t core) { return uint64_t{1} << core; }

  void AbortCore(uint32_t core, AbortCause cause) {
    ctxs_[core]->Abort(cause);
    ++expected_aborts_[core][static_cast<size_t>(cause)];
  }

  // The reference scan the directory replaced: ask every other context.
  uint64_t BruteForceVictims(uint32_t requester, uint64_t first, uint64_t last,
                             bool write_like) const {
    uint64_t victims = 0;
    for (uint32_t c = 0; c < kCores; ++c) {
      if (c == requester) {
        continue;
      }
      for (uint64_t line = first; line <= last; ++line) {
        if (ctxs_[c]->ConflictsWith(line, write_like)) {
          victims |= Bit(c);
          break;
        }
      }
    }
    return victims;
  }

  // One access as the Machine performs it: resolve conflicts (the property
  // under test), abort victims in ascending core order, then do the
  // requester's own protected-set bookkeeping.
  void Access(uint32_t requester, uint64_t first, uint64_t last, bool write_like,
              bool transactional) {
    const uint64_t expected = BruteForceVictims(requester, first, last, write_like);
    const uint64_t resolved = dir_.Resolve(first, last, write_like, requester);
    ASSERT_EQ(resolved, expected)
        << variant_.Name() << ": directory and brute-force scans disagree on the victim set";
    uint64_t victims = resolved;
    while (victims != 0) {
      const uint32_t o = static_cast<uint32_t>(std::countr_zero(victims));
      victims &= victims - 1;
      ASSERT_TRUE(ctxs_[o]->active());
      AbortCore(o, AbortCause::kContention);
    }
    if (!transactional || !ctxs_[requester]->active()) {
      return;
    }
    bool ok = true;
    for (uint64_t line = first; line <= last && ok; ++line) {
      if (write_like) {
        ok = ctxs_[requester]->AddWrite(line);
        if (ok) {
          // The speculative store itself (restored if the region aborts).
          *reinterpret_cast<volatile uint8_t*>(line << asfcommon::kCacheLineShift) = 0xEE;
        }
      } else {
        ok = ctxs_[requester]->AddRead(line);
      }
    }
    if (!ok) {
      // Capacity overflow / ASF1 atomic-phase expansion, as in the Machine.
      AbortCore(requester, AbortCause::kCapacity);
    }
  }

  void Step() {
    const uint32_t c = static_cast<uint32_t>(rng_.NextBelow(kCores));
    const uint32_t li = static_cast<uint32_t>(rng_.NextBelow(kNumLines));
    const uint64_t line = pool_.Line(li);
    const uint64_t dice = rng_.NextBelow(100);
    if (dice < 55) {
      // Memory access: transactional for active regions, plain otherwise
      // (plain accesses still run conflict resolution against the others).
      const bool write_like = rng_.NextPercent(40);
      // Occasionally an unaligned multi-line access.
      const uint64_t last = (li + 1 < kNumLines && rng_.NextPercent(10)) ? line + 1 : line;
      Access(c, line, last, write_like, /*transactional=*/ctxs_[c]->active());
    } else if (dice < 67) {
      if (ctxs_[c]->depth() < 4) {  // Flat nesting, bounded for the walk.
        EXPECT_TRUE(ctxs_[c]->Speculate());
      }
    } else if (dice < 77) {
      if (ctxs_[c]->active()) {
        ctxs_[c]->CommitTop();
      }
    } else if (dice < 83) {
      // Fault-injected / asynchronous aborts (interrupts, page faults,
      // explicit ABORT) — every cause must tear the directory down alike.
      if (ctxs_[c]->active()) {
        static constexpr AbortCause kCauses[] = {AbortCause::kInterrupt, AbortCause::kPageFault,
                                                 AbortCause::kExplicitAbort};
        AbortCore(c, kCauses[rng_.NextBelow(3)]);
      }
    } else if (dice < 91) {
      // Early RELEASE of a (possibly untracked, possibly written) line.
      ctxs_[c]->Release(line);
    } else {
      // L1 displacement: for the w/-L1 variants a tracked read line loses
      // its monitoring and the region takes a capacity abort (the Machine's
      // OnL1LineDropped path). No-op for LLB-only variants.
      if (ctxs_[c]->OnL1Drop(line)) {
        AbortCore(c, AbortCause::kCapacity);
      }
    }
  }

  // Rebuilds the expected readers and writer of every line from every
  // context's tracked lines and compares them with the directory's bits on
  // every line the walk can touch (the pool), plus the active-speculator
  // bitmap.
  void AuditDirectory() {
    uint64_t expected_active = 0;
    std::map<uint64_t, asfmem::LineState> expected;
    for (uint32_t c = 0; c < kCores; ++c) {
      if (!ctxs_[c]->active()) {
        continue;
      }
      expected_active |= Bit(c);
      ctxs_[c]->ForEachTrackedLine([&](uint64_t line, bool written) {
        asfmem::LineState& r = expected[line];
        if (written) {
          ASSERT_EQ(r.writer, 0u) << "two contexts hold line " << line << " as written";
          r.writer = static_cast<uint8_t>(Bit(c));
        } else {
          r.readers |= static_cast<uint8_t>(Bit(c));
        }
      });
    }
    ASSERT_EQ(dir_.active_bitmap(), expected_active);
    for (uint32_t i = 0; i < kNumLines; ++i) {
      const uint64_t line = pool_.Line(i);
      const auto it = expected.find(line);
      const asfmem::LineState want = it == expected.end() ? asfmem::LineState{} : it->second;
      if (it != expected.end()) {
        expected.erase(it);
      }
      EXPECT_EQ(dir_.Record(line).readers, want.readers) << "line " << i;
      EXPECT_EQ(dir_.Record(line).writer, want.writer) << "line " << i;
    }
    EXPECT_TRUE(expected.empty()) << "a context tracks a line outside the walk's pool";
  }

  const AsfVariant variant_;
  ConflictDirectory dir_;
  asfcommon::Rng rng_;
  LinePool pool_;
  std::vector<std::unique_ptr<AsfContext>> ctxs_;
  std::array<std::array<uint64_t, static_cast<size_t>(AbortCause::kNumCauses)>, kCores>
      expected_aborts_{};
};

class ConflictDirectoryEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool, uint64_t>> {};

TEST_P(ConflictDirectoryEquivalence, RandomWalkMatchesBruteForce) {
  static const AsfVariant kVariants[] = {AsfVariant::Llb8(), AsfVariant::Llb256(),
                                         AsfVariant::Llb8WithL1(), AsfVariant::Llb256WithL1(),
                                         AsfVariant::Asf1Llb256()};
  const AsfVariant& variant = kVariants[std::get<0>(GetParam())];
  const bool gate_enabled = std::get<1>(GetParam());
  const uint64_t seed = std::get<2>(GetParam());
  Walk walk(variant, gate_enabled, seed);
  walk.Run();
}

std::string EquivalenceParamName(
    const ::testing::TestParamInfo<ConflictDirectoryEquivalence::ParamType>& info) {
  static const char* kNames[] = {"Llb8", "Llb256", "Llb8WithL1", "Llb256WithL1", "Asf1Llb256"};
  return std::string(kNames[std::get<0>(info.param)]) +
         (std::get<1>(info.param) ? "_gated" : "_ungated") + "_seed" +
         std::to_string(std::get<2>(info.param) & 0xFFFF);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ConflictDirectoryEquivalence,
                         ::testing::Combine(::testing::Range(0, 5), ::testing::Bool(),
                                            ::testing::Values(uint64_t{1},
                                                              uint64_t{0xA5F0A5F0})),
                         EquivalenceParamName);

}  // namespace
}  // namespace asf
