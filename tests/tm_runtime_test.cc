// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests of the TM runtimes: ASF-TM (hardware path, serial-irrevocable
// fallback, contention management, transactional malloc), TinySTM, the
// sequential/global-lock references, and cross-runtime atomicity properties.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/common/frame_pool.h"
#include "src/common/random.h"
#include "src/tm/asf_tm.h"
#include "src/tm/serial_tm.h"
#include "src/tm/tiny_stm.h"
#include "tests/tm_test_util.h"

namespace asftm {
namespace {

using asfcommon::AbortCause;
using asfsim::SimThread;
using asfsim::Task;
using asftest::Pretouch;
using asftest::QuietParams;
using asftest::RunWorkers;

struct alignas(64) Cell {
  uint64_t value = 0;
};

// Shared counter incremented transactionally by all workers: the canonical
// atomicity check (no lost updates under any runtime).
void CounterTest(TmRuntime& rt, asf::Machine& m, uint32_t threads, uint64_t increments) {
  Cell counter;
  Pretouch(m, &counter, sizeof(counter));
  RunWorkers(m, threads, [&](SimThread& t, uint32_t) -> Task<void> {
    for (uint64_t i = 0; i < increments; ++i) {
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        uint64_t v = co_await tx.Read(&counter.value);
        t.core().WorkInstructions(5);
        co_await tx.Write(&counter.value, v + 1);
      });
    }
  });
  EXPECT_EQ(counter.value, threads * increments) << rt.name();
  EXPECT_EQ(rt.TotalStats().Commits(), threads * increments) << rt.name();
}

TEST(AsfTm, CounterAtomicAcrossThreads) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  AsfTm rt(m);
  CounterTest(rt, m, 4, 200);
  // Contention must have caused some aborts, all retried successfully.
  EXPECT_GT(rt.TotalStats().Aborts(AbortCause::kContention), 0u);
}

TEST(TinyStm, CounterAtomicAcrossThreads) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  TinyStm rt(m);
  CounterTest(rt, m, 4, 200);
  EXPECT_GT(rt.TotalStats().Aborts(AbortCause::kStmConflict), 0u);
}

TEST(GlobalLockTm, CounterAtomicAcrossThreads) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  GlobalLockTm rt(m);
  CounterTest(rt, m, 4, 200);
}

TEST(SequentialTm, CounterSingleThread) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  SequentialTm rt(m);
  CounterTest(rt, m, 1, 500);
}

// Bank-transfer invariant: total balance is conserved by concurrent
// transfers; a concurrent auditor transaction always observes the full sum.
void BankTest(TmRuntime& rt, asf::Machine& m, uint32_t threads) {
  constexpr uint32_t kAccounts = 16;
  constexpr uint64_t kInitial = 1000;
  std::vector<Cell> accounts(kAccounts);
  for (auto& a : accounts) {
    a.value = kInitial;
  }
  Pretouch(m, accounts.data(), accounts.size() * sizeof(Cell));
  uint64_t audit_failures = 0;
  RunWorkers(m, threads, [&](SimThread& t, uint32_t tid) -> Task<void> {
    asfcommon::Rng rng(1234 + tid);
    for (int i = 0; i < 150; ++i) {
      if (tid == 0 && i % 10 == 0) {
        // Auditor: sums all accounts in one transaction.
        uint64_t sum = 0;
        co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
          sum = 0;
          for (auto& a : accounts) {
            sum += co_await tx.Read(&a.value);
          }
        });
        if (sum != kAccounts * kInitial) {
          ++audit_failures;
        }
        continue;
      }
      uint32_t from = static_cast<uint32_t>(rng.NextBelow(kAccounts));
      uint32_t to = static_cast<uint32_t>(rng.NextBelow(kAccounts));
      uint64_t amount = rng.NextInRange(1, 10);
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        uint64_t f = co_await tx.Read(&accounts[from].value);
        uint64_t v = co_await tx.Read(&accounts[to].value);
        if (f >= amount) {
          co_await tx.Write(&accounts[from].value, f - amount);
          co_await tx.Write(&accounts[to].value, v + (from == to ? 0 : amount));
          if (from == to) {
            co_await tx.Write(&accounts[to].value, f);  // Self-transfer: no-op.
          }
        }
      });
    }
  });
  uint64_t total = 0;
  for (auto& a : accounts) {
    total += a.value;
  }
  EXPECT_EQ(total, kAccounts * kInitial) << rt.name();
  EXPECT_EQ(audit_failures, 0u) << rt.name();
}

TEST(AsfTm, BankInvariantLlb8) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  AsfTm rt(m);
  BankTest(rt, m, 4);
}

TEST(AsfTm, BankInvariantLlb256WithL1) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb256WithL1(), 4));
  AsfTm rt(m);
  BankTest(rt, m, 4);
}

TEST(TinyStm, BankInvariant) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  TinyStm rt(m);
  BankTest(rt, m, 4);
}

TEST(AsfTm, CapacityOverflowFallsBackToSerial) {
  // A transaction touching 32 lines cannot run on LLB-8: it must still
  // commit (via serial-irrevocable mode), not livelock.
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 2));
  AsfTm rt(m);
  std::vector<Cell> cells(32);
  Pretouch(m, cells.data(), cells.size() * sizeof(Cell));
  RunWorkers(m, 2, [&](SimThread& t, uint32_t) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        for (auto& c : cells) {
          uint64_t v = co_await tx.Read(&c.value);
          co_await tx.Write(&c.value, v + 1);
        }
      });
    }
  });
  for (auto& c : cells) {
    EXPECT_EQ(c.value, 20u);
  }
  TxStats total = rt.TotalStats();
  EXPECT_EQ(total.serial_commits, 20u);  // Every tx went serial.
  EXPECT_EQ(total.hw_commits, 0u);
  EXPECT_GE(total.Aborts(AbortCause::kCapacity), 20u);
}

TEST(AsfTm, SerialModeAbortsConcurrentHardwareTx) {
  // One thread runs big (serial) transactions, the other small (hardware)
  // ones; both must make progress and stay atomic.
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 2));
  AsfTm rt(m);
  std::vector<Cell> big(32);
  Cell small;
  Pretouch(m, big.data(), big.size() * sizeof(Cell));
  Pretouch(m, &small, sizeof(small));
  RunWorkers(m, 2, [&](SimThread& t, uint32_t tid) -> Task<void> {
    if (tid == 0) {
      for (int i = 0; i < 5; ++i) {
        co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
          for (auto& c : big) {
            uint64_t v = co_await tx.Read(&c.value);
            co_await tx.Write(&c.value, v + 1);
          }
        });
      }
    } else {
      for (int i = 0; i < 200; ++i) {
        co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
          uint64_t v = co_await tx.Read(&small.value);
          co_await tx.Write(&small.value, v + 1);
        });
      }
    }
  });
  EXPECT_EQ(small.value, 200u);
  for (auto& c : big) {
    EXPECT_EQ(c.value, 5u);
  }
  TxStats total = rt.TotalStats();
  EXPECT_EQ(total.serial_commits, 5u);
  EXPECT_EQ(total.hw_commits, 200u);
}

TEST(AsfTm, TxMallocRefillAbortsThenSucceeds) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb256(), 1));
  AsfTm rt(m);
  Cell head;
  Pretouch(m, &head, sizeof(head));
  // Allocate more than one 64 KiB chunk's worth of 64-byte nodes.
  constexpr int kNodes = 1200;
  RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
    for (int i = 0; i < kNodes; ++i) {
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        void* p = co_await tx.TxMalloc(48);
        auto* cell = static_cast<Cell*>(p);
        co_await tx.Write(&cell->value, uint64_t{7});
        uint64_t v = co_await tx.Read(&head.value);
        co_await tx.Write(&head.value, v + 1);
      });
    }
  });
  EXPECT_EQ(head.value, static_cast<uint64_t>(kNodes));
  TxStats total = rt.TotalStats();
  EXPECT_GT(total.Aborts(AbortCause::kMallocRefill), 0u);
  // Fresh chunk pages fault inside transactions (the paper's hash-set
  // behavior): expect page-fault aborts too.
  EXPECT_GT(total.Aborts(AbortCause::kPageFault), 0u);
}

TEST(AsfTm, UserAbortCancelsWithoutRetry) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  AsfTm rt(m);
  Cell cell;
  Pretouch(m, &cell, sizeof(cell));
  RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
    co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
      co_await tx.Write(&cell.value, uint64_t{99});
      co_await tx.UserAbort();
    });
  });
  EXPECT_EQ(cell.value, 0u);  // Cancelled: no effects.
  EXPECT_EQ(rt.TotalStats().Commits(), 0u);
  EXPECT_EQ(rt.TotalStats().Aborts(AbortCause::kUserAbort), 1u);
}

TEST(AsfTm, UserAbortInSerialModeRollsBack) {
  // A transaction too big for the LLB falls back to serial mode; a
  // language-level cancel must still roll it back (revocable serial mode).
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  AsfTm rt(m);
  std::vector<Cell> cells(24);
  Pretouch(m, cells.data(), cells.size() * sizeof(Cell));
  RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
    co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
      for (auto& c : cells) {
        uint64_t v = co_await tx.Read(&c.value);
        co_await tx.Write(&c.value, v + 9);
      }
      co_await tx.UserAbort();
    });
  });
  for (auto& c : cells) {
    EXPECT_EQ(c.value, 0u);  // Serial undo log restored everything.
  }
  EXPECT_EQ(rt.TotalStats().serial_commits, 0u);
  EXPECT_EQ(rt.TotalStats().Aborts(AbortCause::kUserAbort), 1u);
}

TEST(TinyStm, UserAbortRollsBackWrites) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  TinyStm rt(m);
  Cell cell;
  cell.value = 5;
  Pretouch(m, &cell, sizeof(cell));
  RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
    co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
      co_await tx.Write(&cell.value, uint64_t{99});
      co_await tx.UserAbort();
    });
  });
  EXPECT_EQ(cell.value, 5u);  // Undo log restored the original.
}

TEST(TinyStm, WriteWriteConflictResolvedByLocking) {
  // Two threads repeatedly write disjoint-then-overlapping cells; final
  // state must reflect some serial order (both increments applied).
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 2));
  TinyStm rt(m);
  Cell a;
  Cell b;
  Pretouch(m, &a, sizeof(a));
  Pretouch(m, &b, sizeof(b));
  RunWorkers(m, 2, [&](SimThread& t, uint32_t tid) -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        // Swap-update both cells: a' = a+1 then b' = b+1 (or reversed),
        // forcing write-write conflicts between the threads.
        if (tid == 0) {
          uint64_t va = co_await tx.Read(&a.value);
          co_await tx.Write(&a.value, va + 1);
          uint64_t vb = co_await tx.Read(&b.value);
          co_await tx.Write(&b.value, vb + 1);
        } else {
          uint64_t vb = co_await tx.Read(&b.value);
          co_await tx.Write(&b.value, vb + 1);
          uint64_t va = co_await tx.Read(&a.value);
          co_await tx.Write(&a.value, va + 1);
        }
      });
    }
  });
  EXPECT_EQ(a.value, 200u);
  EXPECT_EQ(b.value, 200u);
}

TEST(TinyStm, ReadOnlyTransactionsCommitWithoutClockBump) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  TinyStm rt(m);
  Cell cell;
  cell.value = 42;
  Pretouch(m, &cell, sizeof(cell));
  uint64_t seen = 0;
  RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
    for (int i = 0; i < 50; ++i) {
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        seen = co_await tx.Read(&cell.value);
      });
    }
  });
  EXPECT_EQ(seen, 42u);
  EXPECT_EQ(rt.TotalStats().stm_commits, 50u);
  EXPECT_EQ(rt.TotalStats().TotalAborts(), 0u);
}

uint64_t FrameAllocs() { return asfcommon::FramePool::ForThread().stats().allocs; }

// Coroutine frames allocated by one typed read and one typed write inside a
// single-threaded block (the runner thread is the simulation's host thread).
std::pair<uint64_t, uint64_t> FramesPerBarrier(TmRuntime& rt, asf::Machine& m) {
  Cell cell;
  Pretouch(m, &cell, sizeof(cell));
  uint64_t read_frames = ~0ull;
  uint64_t write_frames = ~0ull;
  RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
    co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
      uint64_t before = FrameAllocs();
      uint64_t v = co_await tx.Read(&cell.value);
      read_frames = FrameAllocs() - before;
      before = FrameAllocs();
      co_await tx.Write(&cell.value, v + 1);
      write_frames = FrameAllocs() - before;
    });
  });
  EXPECT_EQ(cell.value, 1u) << rt.name();
  return {read_frames, write_frames};
}

TEST(AsfTm, HardwareBarriersAllocateNoFrame) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  AsfTm rt(m);
  EXPECT_EQ(FramesPerBarrier(rt, m), std::make_pair(uint64_t{0}, uint64_t{0}));
  EXPECT_EQ(rt.TotalStats().hw_commits, 1u);
}

TEST(TinyStm, BarriersAllocateOneFrameEach) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  TinyStm rt(m);
  EXPECT_EQ(FramesPerBarrier(rt, m), std::make_pair(uint64_t{1}, uint64_t{1}));
  EXPECT_EQ(rt.TotalStats().stm_commits, 1u);
}

// Records the core's cycle category when destroyed while still armed: a
// probe armed across one barrier sees the category that the barrier left
// behind when an abort destroyed the body mid-barrier.
struct BarrierProbe {
  asfsim::Core& core;
  std::vector<asfsim::CycleCategory>* seen;
  bool armed = true;
  ~BarrierProbe() {
    if (armed) {
      seen->push_back(core.category());
    }
  }
};

// Thread 1 keeps hitting a cold line with plain accesses while thread 0's
// hardware attempt works on it: a store conflicts with a direct read, a load
// with a direct write. The line's RAM latency leaves the attempt suspended
// in the barrier when the conflict lands.
void AbortInsideDirectBarrier(bool in_write) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 2));
  AsfTm rt(m);
  Cell target;
  Cell out;
  Pretouch(m, &target, sizeof(target));
  Pretouch(m, &out, sizeof(out));
  std::vector<asfsim::CycleCategory> seen;
  RunWorkers(m, 2, [&](SimThread& t, uint32_t tid) -> Task<void> {
    if (tid == 1) {
      for (int i = 0; i < 200; ++i) {
        t.core().WorkCycles(20);
        if (in_write) {
          co_await t.Access(asfsim::AccessKind::kLoad, &target.value, 8);
        } else {
          co_await t.Store(asfsim::AccessKind::kStore, &target.value, 8, 0);
        }
      }
      co_return;
    }
    co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
      BarrierProbe probe{t.core(), &seen};
      if (in_write) {
        co_await tx.Write(&target.value, uint64_t{7});
        probe.armed = false;
      } else {
        uint64_t v = co_await tx.Read(&target.value);
        probe.armed = false;
        co_await tx.Write(&out.value, v + 1);
      }
    });
    EXPECT_EQ(t.core().category(), asfsim::CycleCategory::kOutsideTx);
  });
  EXPECT_EQ(in_write ? target.value : out.value, in_write ? 7u : 1u);
  TxStats total = rt.TotalStats();
  EXPECT_EQ(total.Commits(), 1u);
  EXPECT_GE(total.Aborts(AbortCause::kContention), 1u);
  // At least one abort hit the attempt inside the barrier, and each such
  // unwind handed the body back its own category, as the barrier
  // coroutine's CategoryGuard did.
  ASSERT_FALSE(seen.empty());
  for (asfsim::CycleCategory c : seen) {
    EXPECT_EQ(c, asfsim::CycleCategory::kTxAppCode);
  }
}

TEST(AsfTm, AbortInsideDirectReadRetriesAndRestoresCategory) { AbortInsideDirectBarrier(false); }

TEST(AsfTm, AbortInsideDirectWriteRetriesAndRestoresCategory) { AbortInsideDirectBarrier(true); }

TEST(TxAllocator, AttemptRollbackReturnsMemory) {
  TxAllocator alloc(nullptr, 1024, 64);
  alloc.Refill(1);
  alloc.OnAttemptStart();
  void* p1 = alloc.TryAlloc(64);
  ASSERT_NE(p1, nullptr);
  alloc.OnAbort();
  alloc.OnAttemptStart();
  void* p2 = alloc.TryAlloc(64);
  EXPECT_EQ(p1, p2);  // Same slot reused after rollback.
  alloc.OnCommit();
  alloc.OnAttemptStart();
  void* p3 = alloc.TryAlloc(64);
  EXPECT_NE(p2, p3);  // Committed allocation is permanent.
  alloc.OnCommit();
}

TEST(TxAllocator, DeferredFreesQuarantinedOnCommitOnly) {
  TxAllocator alloc(nullptr, 1024, 64);
  alloc.Refill(1);
  alloc.OnAttemptStart();
  void* p = alloc.TryAlloc(64);
  alloc.OnCommit();
  alloc.OnAttemptStart();
  alloc.DeferFree(p);
  alloc.OnAbort();  // Abort: the free never happened.
  alloc.OnAttemptStart();
  alloc.DeferFree(p);
  alloc.OnCommit();  // Now quarantined.
  // No crash / double handling: quarantine is reclaimed at destruction.
}

TEST(TxAllocator, NeedsRefillSignalsExhaustion) {
  TxAllocator alloc(nullptr, 256, 64);
  alloc.Refill(1);
  EXPECT_FALSE(alloc.NeedsRefill(64));
  alloc.OnAttemptStart();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(alloc.TryAlloc(64), nullptr);
  }
  EXPECT_EQ(alloc.TryAlloc(64), nullptr);
  EXPECT_TRUE(alloc.NeedsRefill(64));
  alloc.OnCommit();
}

// Determinism: two identical multi-runtime runs yield identical cycle counts.
TEST(TmDeterminism, IdenticalRunsIdenticalCycles) {
  auto run = [] {
    asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
    AsfTm rt(m);
    Cell counter;
    Pretouch(m, &counter, sizeof(counter));
    RunWorkers(m, 4, [&](SimThread& t, uint32_t) -> Task<void> {
      for (int i = 0; i < 50; ++i) {
        co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
          uint64_t v = co_await tx.Read(&counter.value);
          co_await tx.Write(&counter.value, v + 1);
        });
      }
    });
    return m.scheduler().MaxCycle();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace asftm
