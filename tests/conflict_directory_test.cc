// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Conflict-directory coherence tests.
//
// The directory-based conflict scan replaced the Machine's all-contexts sweep
// for performance, and its bits are now the contexts' only record of the
// lines they hold; its one non-negotiable property is *semantic equivalence*
// with the paper's per-context protected sets. The randomized walk below
// drives real AsfContexts (all three variant classes) through thousands of
// mixed events — accesses, nested speculation, commits, fault-injected
// aborts, releases and L1 displacements — and keeps its own reference: per
// core, a map from each protected line to whether it was written, updated
// from the results of AddRead and AddWrite, from Release, and from outermost
// commits and aborts. On every access Resolve() must return exactly the
// victims a brute-force scan of those maps names; every step checks the
// acting core's set sizes and add results, every OnL1Drop its return value,
// and at regular intervals an audit compares the directory's bits and the
// contexts' HasRead/HasWrite on every line the walk can touch with the maps
// — with the active-speculator gate both enabled and disabled, since the
// gate must be invisible.
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
      if (depth_[c] == 0) {
        continue;
      }
      if (rng_.NextPercent(50)) {
        while (depth_[c] > 0) {
          Commit(c);
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

  // Outermost commits and aborts empty a core's protected set.
  void Commit(uint32_t core) {
    --depth_[core];
    ASSERT_EQ(ctxs_[core]->CommitTop(), depth_[core] == 0);
    if (depth_[core] == 0) {
      EndRegion(core);
    }
  }

  void AbortCore(uint32_t core, AbortCause cause) {
    ctxs_[core]->Abort(cause);
    ++expected_aborts_[core][static_cast<size_t>(cause)];
    depth_[core] = 0;
    EndRegion(core);
  }

  void EndRegion(uint32_t core) {
    sets_[core].clear();
    atomic_phase_[core] = false;
  }

  // Whether the reference admits `line` into `core`'s set: a line already
  // held (a write: already written) needs nothing; otherwise ASF1 freezes the
  // set once the region has written, and a new LLB entry needs a free slot.
  // The LLB holds every protected line, or only the written ones for the
  // w/-L1 variants, whose read set is not capacity-bound here.
  bool ReferenceAdmits(uint32_t core, uint64_t line, bool write) const {
    const std::map<uint64_t, bool>& set = sets_[core];
    const auto it = set.find(line);
    const bool held = it != set.end();
    if (held && (!write || it->second)) {
      return true;
    }
    if (variant_.asf1_static_set && atomic_phase_[core] && !held) {
      return false;
    }
    if (variant_.l1_read_set) {
      return !write || WrittenLines(core) < variant_.llb_entries;
    }
    return held || set.size() < variant_.llb_entries;
  }

  uint32_t WrittenLines(uint32_t core) const {
    uint32_t n = 0;
    for (const auto& [line, written] : sets_[core]) {
      n += written ? 1 : 0;
    }
    return n;
  }

  // The reference scan the directory replaced: every other core's set.
  uint64_t BruteForceVictims(uint32_t requester, uint64_t first, uint64_t last,
                             bool write_like) const {
    uint64_t victims = 0;
    for (uint32_t c = 0; c < kCores; ++c) {
      if (c == requester) {
        continue;
      }
      for (uint64_t line = first; line <= last; ++line) {
        const auto it = sets_[c].find(line);
        if (it != sets_[c].end() && (write_like || it->second)) {
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
      ASSERT_GT(depth_[o], 0u);
      AbortCore(o, AbortCause::kContention);
    }
    if (!transactional || depth_[requester] == 0) {
      return;
    }
    bool ok = true;
    for (uint64_t line = first; line <= last && ok; ++line) {
      const bool admits = ReferenceAdmits(requester, line, write_like);
      if (write_like) {
        ok = ctxs_[requester]->AddWrite(line);
        if (ok) {
          sets_[requester][line] = true;
          atomic_phase_[requester] = true;
          // The speculative store itself (restored if the region aborts).
          *reinterpret_cast<volatile uint8_t*>(line << asfcommon::kCacheLineShift) = 0xEE;
        }
      } else {
        ok = ctxs_[requester]->AddRead(line);
        if (ok) {
          sets_[requester].emplace(line, false);
        }
      }
      ASSERT_EQ(ok, admits) << variant_.Name() << (write_like ? ": AddWrite" : ": AddRead");
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
      Access(c, line, last, write_like, /*transactional=*/depth_[c] > 0);
    } else if (dice < 67) {
      if (depth_[c] < 4) {  // Flat nesting, bounded for the walk.
        EXPECT_TRUE(ctxs_[c]->Speculate());
        ++depth_[c];
      }
    } else if (dice < 77) {
      if (depth_[c] > 0) {
        Commit(c);
      }
    } else if (dice < 83) {
      // Fault-injected / asynchronous aborts (interrupts, page faults,
      // explicit ABORT) — every cause must tear the directory down alike.
      if (depth_[c] > 0) {
        static constexpr AbortCause kCauses[] = {AbortCause::kInterrupt, AbortCause::kPageFault,
                                                 AbortCause::kExplicitAbort};
        AbortCore(c, kCauses[rng_.NextBelow(3)]);
      }
    } else if (dice < 91) {
      // Early RELEASE of a (possibly untracked, possibly written) line: only
      // a read-only line leaves the set.
      ctxs_[c]->Release(line);
      const auto it = sets_[c].find(line);
      if (it != sets_[c].end() && !it->second) {
        sets_[c].erase(it);
      }
    } else {
      // L1 displacement: for the w/-L1 variants a tracked read-only line
      // loses its monitoring and the region takes a capacity abort (the
      // Machine's OnL1LineDropped path). Never signals for LLB-only variants.
      const auto it = sets_[c].find(line);
      const bool expect_drop = variant_.l1_read_set && it != sets_[c].end() && !it->second;
      const bool dropped = ctxs_[c]->OnL1Drop(line);
      ASSERT_EQ(dropped, expect_drop) << variant_.Name() << ": OnL1Drop";
      if (dropped) {
        AbortCore(c, AbortCause::kCapacity);
      }
    }
    ASSERT_EQ(ctxs_[c]->depth(), depth_[c]);
    ASSERT_EQ(ctxs_[c]->write_set_lines(), WrittenLines(c)) << variant_.Name();
    ASSERT_EQ(ctxs_[c]->read_set_lines(), sets_[c].size() - WrittenLines(c)) << variant_.Name();
  }

  // Rebuilds the expected readers and writer of every line the walk can
  // touch (the pool) from the reference sets and compares them with the
  // directory's bits and every context's HasRead/HasWrite, plus the
  // active-speculator bitmap and every context's set sizes.
  void AuditDirectory() {
    uint64_t expected_active = 0;
    for (uint32_t c = 0; c < kCores; ++c) {
      expected_active |= depth_[c] > 0 ? Bit(c) : 0;
      ASSERT_EQ(ctxs_[c]->write_set_lines(), WrittenLines(c)) << "core " << c;
      ASSERT_EQ(ctxs_[c]->read_set_lines(), sets_[c].size() - WrittenLines(c)) << "core " << c;
    }
    ASSERT_EQ(dir_.active_bitmap(), expected_active);
    for (uint32_t i = 0; i < kNumLines; ++i) {
      const uint64_t line = pool_.Line(i);
      asfmem::LineState want{};
      for (uint32_t c = 0; c < kCores; ++c) {
        const auto it = sets_[c].find(line);
        const bool held = it != sets_[c].end();
        const bool written = held && it->second;
        if (written) {
          ASSERT_EQ(want.writer, 0u) << "two cores hold line " << i << " as written";
          want.writer = static_cast<uint8_t>(Bit(c));
        } else if (held) {
          want.readers |= static_cast<uint8_t>(Bit(c));
        }
        EXPECT_EQ(ctxs_[c]->HasRead(line), held) << "core " << c << " line " << i;
        EXPECT_EQ(ctxs_[c]->HasWrite(line), written) << "core " << c << " line " << i;
      }
      EXPECT_EQ(dir_.Record(line).readers, want.readers) << "line " << i;
      EXPECT_EQ(dir_.Record(line).writer, want.writer) << "line " << i;
    }
  }

  const AsfVariant variant_;
  ConflictDirectory dir_;
  asfcommon::Rng rng_;
  LinePool pool_;
  std::vector<std::unique_ptr<AsfContext>> ctxs_;
  // The reference: per core, nesting depth, protected line -> written, and
  // whether the region has written (ASF1's atomic phase).
  std::array<uint32_t, kCores> depth_{};
  std::array<std::map<uint64_t, bool>, kCores> sets_;
  std::array<bool, kCores> atomic_phase_{};
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
