// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Google-benchmark microbenchmarks of the simulation substrate itself:
// host-side throughput of the scheduler (simulated accesses per second), the
// cache model, the LLB, and the STM barrier path. These justify the
// "rapid prototyping" requirement the paper places on its simulator
// (Sec. 4): configurations must run fast enough to explore the design space.
#include <benchmark/benchmark.h>

#include "src/asf/llb.h"
#include "src/harness/experiment.h"
#include "src/mem/cache.h"

namespace {

void BM_CacheTouchInsert(benchmark::State& state) {
  asfmem::Cache cache(asfmem::CacheGeometry{64 * 1024, 2});
  uint64_t line = 0;
  for (auto _ : state) {
    if (!cache.Touch(line)) {
      cache.Insert(line);
    }
    line = (line * 2654435761u + 13) % 4096;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheTouchInsert);

void BM_LlbAddReleaseRestore(benchmark::State& state) {
  alignas(64) static uint8_t lines[64 * 64];
  asf::Llb llb(64);
  uint64_t base = reinterpret_cast<uint64_t>(lines) >> 6;
  for (auto _ : state) {
    for (uint64_t i = 0; i < 32; ++i) {
      llb.AddRead(base + i);
    }
    for (uint64_t i = 32; i < 48; ++i) {
      llb.AddWrite(base + i);
    }
    llb.RestoreAll();
  }
  state.SetItemsProcessed(state.iterations() * 48);
}
BENCHMARK(BM_LlbAddReleaseRestore);

// Simulated-access throughput of the full stack (scheduler + caches + ASF +
// TM): one red-black-tree lookup workload; items = committed transactions.
void BM_SimulatedTxThroughput(benchmark::State& state) {
  const auto runtime = static_cast<harness::RuntimeKind>(state.range(0));
  uint64_t total_tx = 0;
  for (auto _ : state) {
    harness::IntsetConfig cfg;
    cfg.structure = "rb";
    cfg.key_range = 1024;
    cfg.threads = 4;
    cfg.ops_per_thread = 500;
    cfg.runtime = runtime;
    harness::IntsetResult r = harness::RunIntset(cfg);
    total_tx += r.committed_tx;
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_tx));
  state.SetLabel(runtime == harness::RuntimeKind::kAsfTm ? "ASF-TM" : "TinySTM");
}
BENCHMARK(BM_SimulatedTxThroughput)
    ->Arg(static_cast<int>(harness::RuntimeKind::kAsfTm))
    ->Arg(static_cast<int>(harness::RuntimeKind::kTinyStm))
    ->Unit(benchmark::kMillisecond);

// Host cost of machine set-up and teardown: one 8-core paper machine plus the
// runtime, as every sweep job builds them before its first simulated cycle.
void BM_MachineConstruct(benchmark::State& state) {
  const auto runtime = static_cast<harness::RuntimeKind>(state.range(0));
  harness::IntsetConfig cfg;
  cfg.threads = 8;
  cfg.runtime = runtime;
  const asf::MachineParams params =
      harness::PaperMachineParams(cfg.variant, cfg.threads, cfg.timer_interrupts);
  for (auto _ : state) {
    asf::Machine m(params);
    auto rt = harness::MakeRuntime(runtime, m, cfg);
    benchmark::DoNotOptimize(rt.get());
  }
  state.SetLabel(harness::RuntimeKindName(runtime));
}
BENCHMARK(BM_MachineConstruct)
    ->DenseRange(static_cast<int>(harness::RuntimeKind::kAsfTm),
                 static_cast<int>(harness::RuntimeKind::kLockElision))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
