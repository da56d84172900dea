// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests for the host-parallel sweep engine (src/harness/sweep.h): the
// ParallelFor contract, the determinism guarantee (a sweep at --jobs N is
// byte-identical to --jobs 1), and post-join statistics merging. The
// parallel cases double as the machine-exclusivity check under TSan: every
// job owns its own asf::Machine, and Scheduler::Run's atomic host-ownership
// guard trips if two host threads ever enter one simulator.
#include "src/harness/sweep.h"

#include <atomic>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/fault_schedule.h"
#include "src/harness/experiment.h"
#include "src/harness/stress.h"
#include "src/mem/memory_system.h"
#include "src/sim/scheduler.h"

namespace {

harness::IntsetConfig SmallConfig(const char* structure, uint32_t threads, uint64_t seed) {
  harness::IntsetConfig cfg;
  cfg.structure = structure;
  cfg.key_range = 128;
  cfg.update_pct = 20;
  cfg.threads = threads;
  cfg.ops_per_thread = 200;
  cfg.seed = seed;
  return cfg;
}

std::string Digest(const harness::IntsetResult& r) {
  return std::to_string(r.committed_tx) + ":" + std::to_string(r.measure_cycles) + ":" +
         std::to_string(r.tm.TotalAttempts()) + ":" + std::to_string(r.tm.TotalAborts()) + ":" +
         std::to_string(r.breakdown.Total());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 200;
  std::vector<int> hits(kN, 0);
  std::atomic<size_t> calls{0};
  // Each index is claimed by exactly one worker, so the per-index increment
  // is unsynchronized on purpose — TSan would flag a double claim.
  harness::ParallelFor(8, kN, [&](size_t i) {
    ++hits[i];
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(calls.load(), kN);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ParallelForTest, SingleJobRunsInlineInOrder) {
  std::vector<size_t> order;
  harness::ParallelFor(1, 10, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelForTest, MoreJobsThanItems) {
  std::atomic<size_t> calls{0};
  harness::ParallelFor(16, 3, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3u);
}

TEST(ParallelForTest, ZeroItemsIsANoop) {
  harness::ParallelFor(8, 0, [&](size_t) { FAIL() << "must not be called"; });
}

TEST(SweepRunnerTest, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(harness::DefaultJobs(), 1u);
  EXPECT_EQ(harness::SweepRunner(0).jobs(), harness::DefaultJobs());
  EXPECT_EQ(harness::SweepRunner(3).jobs(), 3u);
}

// The core guarantee: fanning a grid over 8 host threads produces results
// identical to the serial pass, config by config.
TEST(SweepRunnerTest, ParallelIntsetSweepMatchesSerial) {
  const char* structures[] = {"list", "rb", "hash"};
  std::vector<harness::IntsetConfig> grid;
  for (const char* s : structures) {
    for (uint32_t threads : {1u, 4u}) {
      grid.push_back(SmallConfig(s, threads, 7));
    }
  }

  harness::SweepRunner serial(1);
  harness::SweepRunner parallel(8);
  for (const auto& cfg : grid) {
    serial.SubmitIntset(cfg);
    parallel.SubmitIntset(cfg);
  }
  serial.Run();
  parallel.Run();

  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(Digest(serial.intset(i)), Digest(parallel.intset(i))) << "config " << i;
  }
}

TEST(SweepRunnerTest, ParallelStressSweepMatchesSerial) {
  harness::StressConfig sc;
  sc.intset = SmallConfig("list", 4, 3);
  ASSERT_TRUE(asffault::FaultSchedule::Lookup("interrupt-heavy", &sc.schedule));

  harness::SweepRunner serial(1);
  harness::SweepRunner parallel(4);
  for (auto rt : {harness::RuntimeKind::kAsfTm, harness::RuntimeKind::kTinyStm}) {
    sc.intset.runtime = rt;
    serial.SubmitStress(sc);
    parallel.SubmitStress(sc);
  }
  serial.Run();
  parallel.Run();

  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(serial.stress(i).Digest(), parallel.stress(i).Digest()) << "config " << i;
    EXPECT_TRUE(parallel.stress(i).invariant_violation.empty());
  }
}

TEST(SweepRunnerTest, StampJobMatchesSerial) {
  harness::StampConfig cfg;
  cfg.threads = 2;
  cfg.scale = 1;

  harness::SweepRunner serial(1);
  harness::SweepRunner parallel(2);
  serial.SubmitStamp("genome", cfg);
  parallel.SubmitStamp("genome", cfg);
  serial.Run();
  parallel.Run();

  EXPECT_TRUE(parallel.stamp(0).validation.empty());
  EXPECT_EQ(serial.stamp(0).exec_cycles, parallel.stamp(0).exec_cycles);
  EXPECT_EQ(serial.stamp(0).tm.TotalAttempts(), parallel.stamp(0).tm.TotalAttempts());
}

TEST(SweepRunnerTest, GenericSubmitRunsEveryJob) {
  harness::SweepRunner sweep(4);
  std::vector<int> out(8, 0);
  for (size_t i = 0; i < out.size(); ++i) {
    sweep.Submit([&out, i]() { out[i] = static_cast<int>(i) + 1; });
  }
  sweep.Run();
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
}

// Cross-layer bit-identity gate for the host-side fast paths: a full
// experiment run with the scheduler's next-event slot and the memory
// system's line/page memoization disabled must produce byte-identical
// results to the default (enabled) run — the fast paths are pure host
// optimizations with zero simulated effect.
TEST(SweepRunnerTest, HostFastPathsDoNotChangeResults) {
  const char* structures[] = {"list", "rb", "hash"};
  std::vector<harness::IntsetConfig> grid;
  for (const char* s : structures) {
    for (uint32_t threads : {1u, 4u, 8u}) {
      grid.push_back(SmallConfig(s, threads, 11));
    }
  }

  std::vector<harness::IntsetResult> fast;
  std::vector<harness::IntsetResult> slow;
  for (const auto& cfg : grid) {
    fast.push_back(harness::RunIntset(cfg));
  }
  asfsim::Scheduler::SetWakeFastPathForTesting(false);
  asfmem::MemorySystem::SetFastPathForTesting(false);
  for (const auto& cfg : grid) {
    slow.push_back(harness::RunIntset(cfg));
  }
  asfsim::Scheduler::SetWakeFastPathForTesting(true);
  asfmem::MemorySystem::SetFastPathForTesting(true);

  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(Digest(fast[i]), Digest(slow[i])) << "config " << i;
    // The telemetry proves the fast paths actually engaged (and actually
    // disengaged under the test toggles).
    EXPECT_GT(fast[i].host.fast_wakes, 0u) << "config " << i;
    EXPECT_GT(fast[i].host.mem_line_hits, 0u) << "config " << i;
    if (grid[i].threads == 1) {
      // A lone thread's wakes are always the global minimum: the inline
      // consume at the suspension point must fire.
      EXPECT_GT(fast[i].host.inline_wakes, 0u) << "config " << i;
    }
    EXPECT_EQ(slow[i].host.fast_wakes, 0u) << "config " << i;
    EXPECT_EQ(slow[i].host.inline_wakes, 0u) << "config " << i;
    EXPECT_EQ(slow[i].host.mem_line_hits, 0u) << "config " << i;
    EXPECT_EQ(slow[i].host.mem_page_hits, 0u) << "config " << i;
  }
}

}  // namespace
