// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Google-benchmark microbenchmarks of the simulation substrate itself:
// host-side throughput of the scheduler (simulated accesses per second),
// coroutine frames, the cache model, the LLB, an ASF context's region, and
// the STM barrier path.
// These justify the "rapid prototyping" requirement the paper places on its
// simulator (Sec. 4): configurations must run fast enough to explore the
// design space.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/asf/asf_context.h"
#include "src/asf/conflict_directory.h"
#include "src/asf/llb.h"
#include "src/harness/experiment.h"
#include "src/mem/cache.h"
#include "src/mem/memory_system.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/tm/tm_api.h"

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

// One speculative region on an LLB of the capacity given as the argument
// (8 and 256, the sizes AsfVariant uses): fill it with half reads and half
// writes, release every other read line, then abort. Items = AddRead,
// AddWrite and Release calls.
void BM_LlbAddReleaseRestore(benchmark::State& state) {
  const uint64_t capacity = static_cast<uint64_t>(state.range(0));
  alignas(64) static uint8_t lines[256 * 64];
  asf::Llb llb(static_cast<uint32_t>(capacity));
  uint64_t base = reinterpret_cast<uint64_t>(lines) >> 6;
  for (auto _ : state) {
    for (uint64_t i = 0; i < capacity / 2; ++i) {
      llb.AddRead(base + i);
    }
    for (uint64_t i = capacity / 2; i < capacity; ++i) {
      llb.AddWrite(base + i);
    }
    for (uint64_t i = 0; i < capacity / 2; i += 2) {
      llb.Release(base + i);
    }
    llb.RestoreAll();
  }
  state.SetItemsProcessed(state.iterations() * (capacity + capacity / 4));
}
BENCHMARK(BM_LlbAddReleaseRestore)->Arg(8)->Arg(256);

// One speculative region of an AsfContext on a standalone conflict
// directory, by variant (arg 0: LLB-8, 1: LLB-256, 2: LLB-256 w/ L1): 16
// AddReads of 6 lines (so 10 repeats), 2 AddWrites of new lines, a Release
// of a read line, then the outermost commit. The set fits the LLB-8, so no
// region aborts. Items = regions.
void BM_AsfContextRegion(benchmark::State& state) {
  static const asf::AsfVariant kVariants[] = {asf::AsfVariant::Llb8(), asf::AsfVariant::Llb256(),
                                              asf::AsfVariant::Llb256WithL1()};
  alignas(64) static uint8_t lines[8 * 64];
  asf::ConflictDirectory dir(1, /*gate_enabled=*/true);
  asf::AsfContext ctx(0, kVariants[state.range(0)], dir);
  const uint64_t base = reinterpret_cast<uint64_t>(lines) >> 6;
  for (auto _ : state) {
    ctx.Speculate();
    bool ok = true;
    for (uint64_t i = 0; i < 16; ++i) {
      ok &= ctx.AddRead(base + i % 6);
    }
    ok &= ctx.AddWrite(base + 6);
    ok &= ctx.AddWrite(base + 7);
    ctx.Release(base + 1);
    benchmark::DoNotOptimize(ok);
    ctx.CommitTop();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsfContextRegion)->DenseRange(0, 2);

// Host cost of one MemorySystem::Access on a paper machine's hierarchy, by
// path. Arg 0: memo hit (one line loaded over and over). Arg 1: L1 hit that
// misses the memo (256 lines on 32 pages, visited page-interleaved, so every
// access translates through the L1 TLB, reads the directory and touches the
// L1). Arg 2: RAM miss plus TLB walk (the 2^20 lines of a pretouched 64 MiB
// region, visited in a fixed permuted cycle that overflows the L2 TLB and the
// L3). Items = accesses.
void BM_MemAccess(benchmark::State& state) {
  const int path = static_cast<int>(state.range(0));
  asfmem::MemorySystem mem(8, asfmem::MemParams{});
  constexpr uint64_t kBase = uint64_t{1} << 32;
  constexpr uint64_t kMissLines = uint64_t{1} << 20;
  mem.PretouchPages(kBase, kMissLines * asfcommon::kCacheLineBytes);
  uint64_t i = 0;
  for (auto _ : state) {
    uint64_t addr;
    if (path == 0) {
      addr = kBase;
    } else if (path == 1) {
      const uint64_t page = i & 31;
      const uint64_t line = (page >> 3) * 8 + ((i >> 5) & 7);  // No two in one L1 set.
      addr = kBase + page * asfcommon::kPageBytes + line * asfcommon::kCacheLineBytes;
    } else {
      addr = kBase + ((i * 2654435761u) & (kMissLines - 1)) * asfcommon::kCacheLineBytes;
    }
    benchmark::DoNotOptimize(mem.Access(0, addr, 8, false).latency);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  static constexpr const char* kLabels[] = {"memo hit", "L1 hit", "RAM miss + TLB walk"};
  state.SetLabel(kLabels[path]);
}
BENCHMARK(BM_MemAccess)->DenseRange(0, 2);

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

// Host cost of one typed transactional barrier, per runtime: one simulated
// thread on a quiet paper machine runs atomic blocks of kBarriersPerBlock
// reads (or writes) of one L1-resident word, one block per benchmark batch.
// Items = barriers; each block's begin and commit is spread over its
// barriers. The hardware runtimes' reads and writes are direct barriers (no
// coroutine frame); TinySTM's and the lock-based runtimes' run a barrier
// coroutine.
constexpr int kBarriersPerBlock = 64;

void TxBarrierLoop(benchmark::State& state, bool write) {
  const auto runtime = static_cast<harness::RuntimeKind>(state.range(0));
  harness::IntsetConfig cfg;
  cfg.threads = 1;
  cfg.runtime = runtime;
  asf::Machine m(harness::PaperMachineParams(cfg.variant, cfg.threads, false));
  auto rt = harness::MakeRuntime(runtime, m, cfg);
  uint64_t* word = m.arena().New<uint64_t>();
  m.mem().PretouchPages(reinterpret_cast<uint64_t>(word), sizeof(*word));
  const asftm::BodyFn body = [&](asftm::Tx& tx) -> asfsim::Task<void> {
    for (uint64_t i = 0; i < kBarriersPerBlock; ++i) {
      if (write) {
        co_await tx.Write(word, i);
      } else {
        benchmark::DoNotOptimize(co_await tx.Read(word));
      }
    }
  };
  asfsim::SimThread* thread = nullptr;
  auto loop = [&]() -> asfsim::Task<void> {
    while (state.KeepRunningBatch(kBarriersPerBlock)) {
      co_await rt->Atomic(*thread, body);
    }
  };
  thread = &m.scheduler().Spawn(loop());
  m.scheduler().Run();
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(harness::RuntimeKindName(runtime));
}

void BM_TxReadBarrier(benchmark::State& state) { TxBarrierLoop(state, false); }
BENCHMARK(BM_TxReadBarrier)
    ->DenseRange(static_cast<int>(harness::RuntimeKind::kAsfTm),
                 static_cast<int>(harness::RuntimeKind::kLockElision));

void BM_TxWriteBarrier(benchmark::State& state) { TxBarrierLoop(state, true); }
BENCHMARK(BM_TxWriteBarrier)
    ->DenseRange(static_cast<int>(harness::RuntimeKind::kAsfTm),
                 static_cast<int>(harness::RuntimeKind::kLockElision));

// Coroutine frame cost through the frame recycler (src/common/frame_pool.h):
// arg 0 creates, runs and destroys a three-frame tree (a committed attempt:
// a parent awaiting two leaves in turn); arg 1 destroys a two-frame tree
// suspended in its leaf (the abort shape). Items = frames.
asfsim::Task<void> FrameLeaf(uint64_t* counter) {
  ++*counter;
  co_return;
}

asfsim::Task<void> FrameTree(uint64_t* counter) {
  co_await FrameLeaf(counter);
  co_await FrameLeaf(counter);
}

asfsim::Task<void> SuspendedLeaf() { co_await std::suspend_always{}; }

asfsim::Task<void> SuspendedTree() { co_await SuspendedLeaf(); }

void BM_TaskFrame(benchmark::State& state) {
  const bool abort_shape = state.range(0) == 1;
  uint64_t counter = 0;
  for (auto _ : state) {
    asfsim::Task<void> tree = abort_shape ? SuspendedTree() : FrameTree(&counter);
    tree.handle().resume();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * (abort_shape ? 2 : 3));
  state.SetLabel(abort_shape ? "suspended tree destroyed" : "tree run to completion");
}
BENCHMARK(BM_TaskFrame)->Arg(0)->Arg(1);

// Scheduler cost per access, isolated from the machine model: a handler that
// charges a fixed latency and touches nothing else. Arg = simulated threads.
// With one thread every access leads and completes in place, except the one
// in 33 that the chain cap sends through Run() (the inline path). With
// several threads staggered by a fraction of the latency, each completion
// lands behind another thread's pending event, so it takes a wake through
// the pending-event table and Run()'s loop (the loop path). Items = accesses;
// inline_share = accesses completed in place per access.
class FixedLatencyHandler : public asfsim::AccessHandler {
 public:
  asfsim::AccessOutcome OnAccess(asfsim::SimThread&, asfsim::AccessKind, uint64_t,
                                 uint32_t) override {
    return {kLatency, false};
  }
  static constexpr uint64_t kLatency = 64;
};

asfsim::Task<void> WakeLoop(asfsim::SimThread* const* slot, uint64_t head_work,
                            uint64_t accesses) {
  asfsim::SimThread& t = **slot;
  t.core().WorkCycles(head_work);
  for (uint64_t i = 0; i < accesses; ++i) {
    co_await t.Access(asfsim::AccessKind::kLoad, uint64_t{0x1000}, 8);
  }
}

void BM_SchedulerWake(benchmark::State& state) {
  const auto threads = static_cast<uint32_t>(state.range(0));
  constexpr uint64_t kAccessesPerThread = 1 << 14;
  asfsim::CoreParams params;
  params.timer_enabled = false;
  FixedLatencyHandler handler;
  uint64_t accesses = 0;
  uint64_t inline_wakes = 0;
  for (auto _ : state) {
    asfsim::Scheduler sched(threads, params);
    sched.SetAccessHandler(&handler);
    std::vector<asfsim::SimThread*> slots(threads, nullptr);
    for (uint32_t i = 0; i < threads; ++i) {
      const uint64_t stagger = i * FixedLatencyHandler::kLatency / threads;
      slots[i] = &sched.Spawn(WakeLoop(&slots[i], stagger, kAccessesPerThread));
    }
    sched.Run();
    accesses += sched.accesses();
    inline_wakes += sched.inline_wakes();
  }
  state.SetItemsProcessed(static_cast<int64_t>(accesses));
  state.counters["inline_share"] =
      accesses == 0 ? 0.0 : static_cast<double>(inline_wakes) / static_cast<double>(accesses);
  state.SetLabel(threads == 1 ? "inline path" : "loop path");
}
BENCHMARK(BM_SchedulerWake)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
