// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests of the experiment harness: measurement phases, throughput math,
// and the headline qualitative results the paper reports (ASF >> STM at one
// thread; LLB-8 collapses on big structures; scalability with threads).
#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/harness/stress.h"

namespace harness {
namespace {

IntsetConfig BaseConfig() {
  IntsetConfig cfg;
  cfg.structure = "rb";
  cfg.key_range = 1024;
  cfg.update_pct = 20;
  cfg.threads = 2;
  cfg.ops_per_thread = 300;
  cfg.seed = 5;
  return cfg;
}

TEST(Harness, CountsCommitsAndComputesThroughput) {
  IntsetConfig cfg = BaseConfig();
  IntsetResult r = RunIntset(cfg);
  // Population is excluded by the stats reset: measured commits == ops.
  EXPECT_EQ(r.committed_tx, cfg.threads * cfg.ops_per_thread);
  EXPECT_GT(r.measure_cycles, 0u);
  EXPECT_GT(r.tx_per_us, 0.0);
  EXPECT_TRUE(r.invariant_violation.empty());
}

TEST(Harness, DeterministicAcrossRuns) {
  IntsetConfig cfg = BaseConfig();
  IntsetResult a = RunIntset(cfg);
  IntsetResult b = RunIntset(cfg);
  EXPECT_EQ(a.measure_cycles, b.measure_cycles);
  EXPECT_EQ(a.tm.TotalAborts(), b.tm.TotalAborts());
}

TEST(Harness, AsfBeatsStmSingleThread) {
  // The paper's headline (Table 1): ASF-TM has far lower single-thread
  // overhead than the STM — large on long traversals (linked list), smaller
  // but still clear on shallow structures (red-black tree, ratio ~2.5x in
  // the paper).
  IntsetConfig cfg = BaseConfig();
  cfg.structure = "list";
  cfg.key_range = 512;
  cfg.threads = 1;
  cfg.ops_per_thread = 150;
  cfg.runtime = RuntimeKind::kAsfTm;
  IntsetResult asf_list = RunIntset(cfg);
  cfg.runtime = RuntimeKind::kTinyStm;
  IntsetResult stm_list = RunIntset(cfg);
  EXPECT_GT(asf_list.tx_per_us, 3.0 * stm_list.tx_per_us)
      << "list: ASF " << asf_list.tx_per_us << " vs STM " << stm_list.tx_per_us;

  cfg = BaseConfig();
  cfg.threads = 1;
  cfg.runtime = RuntimeKind::kAsfTm;
  IntsetResult asf_rb = RunIntset(cfg);
  cfg.runtime = RuntimeKind::kTinyStm;
  IntsetResult stm_rb = RunIntset(cfg);
  EXPECT_GT(asf_rb.tx_per_us, 1.4 * stm_rb.tx_per_us)
      << "rb: ASF " << asf_rb.tx_per_us << " vs STM " << stm_rb.tx_per_us;
}

TEST(Harness, Llb8FallsBackOnLargeTree) {
  // A big red-black tree exceeds 8 LLB entries: most transactions must go
  // serial on LLB-8 but commit in hardware on LLB-256.
  IntsetConfig cfg = BaseConfig();
  cfg.key_range = 8192;
  cfg.threads = 2;
  cfg.variant = asf::AsfVariant::Llb8();
  IntsetResult small = RunIntset(cfg);
  cfg.variant = asf::AsfVariant::Llb256();
  IntsetResult big = RunIntset(cfg);
  EXPECT_GT(small.tm.serial_commits, small.tm.hw_commits);
  EXPECT_GT(big.tm.hw_commits, big.tm.serial_commits);
  EXPECT_GT(big.tx_per_us, small.tx_per_us);
}

TEST(Harness, HashSetScalesWithThreads) {
  IntsetConfig cfg = BaseConfig();
  cfg.structure = "hash";
  cfg.key_range = 8192;
  cfg.update_pct = 100;
  cfg.ops_per_thread = 400;
  cfg.threads = 1;
  IntsetResult one = RunIntset(cfg);
  cfg.threads = 8;
  IntsetResult eight = RunIntset(cfg);
  EXPECT_GT(eight.tx_per_us, 3.0 * one.tx_per_us);
}

TEST(Harness, BreakdownCoversMeasurementCycles) {
  IntsetConfig cfg = BaseConfig();
  cfg.threads = 1;
  IntsetResult r = RunIntset(cfg);
  // Per-category cycles sum to (roughly) the measured interval: everything
  // the core did is attributed somewhere.
  uint64_t total = r.breakdown.Total();
  EXPECT_GT(total, r.measure_cycles * 9 / 10);
  EXPECT_LE(total, r.measure_cycles + 1000);
  // A TM run spends cycles in all transactional categories.
  EXPECT_GT(r.breakdown.At(asfsim::CycleCategory::kTxLoadStore), 0u);
  EXPECT_GT(r.breakdown.At(asfsim::CycleCategory::kTxStartCommit), 0u);
}

// RunStress is RunIntset's workload plus host-side additions (watchdog,
// outcome log, conservation checks): without faults it must measure exactly
// what RunIntset measures on the same config.
TEST(Harness, StressWithoutFaultsMatchesRunIntset) {
  for (RuntimeKind runtime : {RuntimeKind::kAsfTm, RuntimeKind::kTinyStm}) {
    IntsetConfig cfg = BaseConfig();
    cfg.structure = "list";
    cfg.key_range = 128;
    cfg.update_pct = 50;
    cfg.threads = 4;
    cfg.variant = asf::AsfVariant::Llb8();
    cfg.runtime = runtime;
    StressConfig sc;
    sc.intset = cfg;
    const StressResult stress = RunStress(sc);
    const IntsetResult plain = RunIntset(cfg);
    const char* name = RuntimeKindName(runtime);
    ASSERT_TRUE(stress.invariant_violation.empty()) << name << ": " << stress.invariant_violation;
    EXPECT_EQ(stress.total_injected, 0u) << name;
    EXPECT_EQ(stress.intset.measure_cycles, plain.measure_cycles) << name;
    EXPECT_EQ(stress.intset.tm, plain.tm) << name;
    EXPECT_EQ(stress.intset.breakdown, plain.breakdown) << name;
    EXPECT_EQ(stress.intset.asf, plain.asf) << name;
    EXPECT_EQ(stress.intset.host, plain.host) << name;
    EXPECT_GT(plain.host.mem_accesses, 0u) << name;
  }
}

}  // namespace
}  // namespace harness
