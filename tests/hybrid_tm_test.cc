// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests for the paper's auxiliary execution modes: speculative lock elision
// (Sec. 3) and the PhasedTM-style hardware/software phase fallback the paper
// sketches as an alternative to serial-irrevocable mode (Sec. 3.2).
#include <gtest/gtest.h>

#include <vector>

#include "src/common/random.h"
#include "src/tm/lock_elision.h"
#include "src/tm/phased_tm.h"
#include "tests/tm_test_util.h"

namespace asftm {
namespace {

using asfcommon::AbortCause;
using asfsim::AccessKind;
using asfsim::SimThread;
using asfsim::Task;
using asftest::Pretouch;
using asftest::QuietParams;
using asftest::RunWorkers;

struct alignas(64) Cell {
  uint64_t value = 0;
};

TEST(LockElision, DisjointCriticalSectionsRunConcurrently) {
  // Four threads update four different cells under ONE lock: with elision
  // they never serialize (no real acquisitions), yet all updates land.
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  ElidableLock lock(m);
  std::vector<Cell> cells(4);
  Pretouch(m, cells.data(), cells.size() * sizeof(Cell));
  RunWorkers(m, 4, [&](SimThread& t, uint32_t tid) -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await lock.CriticalSection(t, [&](bool elided) -> Task<void> {
        SimThread& th = t;
        if (elided) {
          co_await th.Access(AccessKind::kTxLoad, &cells[tid].value, 8);
          uint64_t v = cells[tid].value;
          co_await th.Store(AccessKind::kTxStore, &cells[tid].value, 8, v + 1);
        } else {
          co_await th.Access(AccessKind::kLoad, &cells[tid].value, 8);
          uint64_t v = cells[tid].value;
          co_await th.Store(AccessKind::kStore, &cells[tid].value, 8, v + 1);
        }
      });
    }
  });
  for (auto& c : cells) {
    EXPECT_EQ(c.value, 100u);
  }
  EXPECT_EQ(lock.real_acquisitions(), 0u);  // Never serialized.
  EXPECT_EQ(lock.elided_commits(), 400u);
}

TEST(LockElision, ConflictingSectionsStayCorrect) {
  // All threads update the SAME cell: elision aborts force retries or the
  // real-lock fallback, but no update is lost either way.
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  ElidableLock lock(m);
  Cell shared;
  Pretouch(m, &shared, sizeof(shared));
  RunWorkers(m, 4, [&](SimThread& t, uint32_t) -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await lock.CriticalSection(t, [&](bool elided) -> Task<void> {
        if (elided) {
          co_await t.Access(AccessKind::kTxLoad, &shared.value, 8);
          uint64_t v = shared.value;
          co_await t.Store(AccessKind::kTxStore, &shared.value, 8, v + 1);
        } else {
          co_await t.Access(AccessKind::kLoad, &shared.value, 8);
          uint64_t v = shared.value;
          co_await t.Store(AccessKind::kStore, &shared.value, 8, v + 1);
        }
      });
    }
  });
  EXPECT_EQ(shared.value, 400u);
  EXPECT_GT(lock.elision_aborts(), 0u);
}

TEST(LockElision, RealAcquisitionAbortsElisions) {
  // A section too big for the LLB always falls back to the real lock; the
  // others keep eliding around it correctly.
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 2));
  ElidableLock lock(m);
  std::vector<Cell> big(24);
  Cell small;
  Pretouch(m, big.data(), big.size() * sizeof(Cell));
  Pretouch(m, &small, sizeof(small));
  RunWorkers(m, 2, [&](SimThread& t, uint32_t tid) -> Task<void> {
    for (int i = 0; i < (tid == 0 ? 5 : 100); ++i) {
      co_await lock.CriticalSection(t, [&](bool elided) -> Task<void> {
        if (tid == 0) {
          for (auto& c : big) {  // Over-capacity: must take the lock.
            if (elided) {
              co_await t.Access(AccessKind::kTxLoad, &c.value, 8);
              co_await t.Store(AccessKind::kTxStore, &c.value, 8, c.value + 1);
            } else {
              co_await t.Access(AccessKind::kLoad, &c.value, 8);
              co_await t.Store(AccessKind::kStore, &c.value, 8, c.value + 1);
            }
          }
        } else {
          if (elided) {
            co_await t.Access(AccessKind::kTxLoad, &small.value, 8);
            co_await t.Store(AccessKind::kTxStore, &small.value, 8, small.value + 1);
          } else {
            co_await t.Access(AccessKind::kLoad, &small.value, 8);
            co_await t.Store(AccessKind::kStore, &small.value, 8, small.value + 1);
          }
        }
      });
    }
  });
  for (auto& c : big) {
    EXPECT_EQ(c.value, 5u);
  }
  EXPECT_EQ(small.value, 100u);
  EXPECT_GT(lock.real_acquisitions(), 0u);
  EXPECT_GT(lock.elided_commits(), 0u);
}

TEST(LockElision, UserAbortUnderTheRealLockRollsBack) {
  // Under the real lock the section runs with plain, undo-logged accesses:
  // a language-level cancel restores memory and counts as the serial
  // attempt's abort.
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  ElisionTmParams params;
  params.lock.always_acquire = true;
  ElisionTm rt(m, params);
  Cell cell;
  Pretouch(m, &cell, sizeof(cell));
  RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
    co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
      EXPECT_TRUE(tx.irrevocable());
      co_await tx.Write(&cell.value, uint64_t{7});
      co_await tx.UserAbort();
    });
    co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
      co_await tx.Write(&cell.value, uint64_t{1});
    });
  });
  EXPECT_EQ(cell.value, 1u);
  TxStats s = rt.TotalStats();
  EXPECT_EQ(s.serial_attempts, 2u);
  EXPECT_EQ(s.serial_commits, 1u);
  EXPECT_EQ(s.Aborts(AbortCause::kUserAbort), 1u);
  EXPECT_EQ(s.hw_attempts, 0u);
}

TEST(PhasedTm, CounterAtomicAcrossThreads) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  PhasedTm rt(m);
  Cell counter;
  Pretouch(m, &counter, sizeof(counter));
  RunWorkers(m, 4, [&](SimThread& t, uint32_t) -> Task<void> {
    for (int i = 0; i < 150; ++i) {
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        uint64_t v = co_await tx.Read(&counter.value);
        co_await tx.Write(&counter.value, v + 1);
      });
    }
  });
  EXPECT_EQ(counter.value, 600u);
}

TEST(PhasedTm, CapacityTriggersSoftwarePhaseAndRecovers) {
  // Big transactions flip the system into the software phase (they commit
  // on the STM, concurrently — unlike serial-irrevocable mode); once the
  // quota drains, the system returns to hardware.
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 2));
  PhasedTm rt(m);
  std::vector<Cell> cells(32);
  Cell small;
  Pretouch(m, cells.data(), cells.size() * sizeof(Cell));
  Pretouch(m, &small, sizeof(small));
  RunWorkers(m, 2, [&](SimThread& t, uint32_t tid) -> Task<void> {
    if (tid == 0) {
      for (int i = 0; i < 10; ++i) {
        co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
          for (auto& c : cells) {
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
  for (auto& c : cells) {
    EXPECT_EQ(c.value, 10u);
  }
  EXPECT_EQ(small.value, 200u);
  TxStats total = rt.TotalStats();
  EXPECT_GT(rt.switches_to_software(), 0u);
  EXPECT_GT(rt.switches_to_hardware(), 0u);
  EXPECT_GT(total.stm_commits, 0u);  // Big transactions committed in software.
  EXPECT_GT(total.hw_commits, 0u);   // Small ones mostly in hardware.
  EXPECT_EQ(total.serial_commits, 0u);  // Never serialized.
}

TEST(PhasedTm, BankInvariantUnderPhaseChurn) {
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 4));
  PhasedTmParams params;
  params.software_quota = 4;  // Frequent phase churn.
  PhasedTm rt(m, params);
  constexpr uint32_t kAccounts = 24;  // Transfers small, audits over-capacity.
  std::vector<Cell> accounts(kAccounts);
  for (auto& a : accounts) {
    a.value = 100;
  }
  Pretouch(m, accounts.data(), accounts.size() * sizeof(Cell));
  uint64_t audit_failures = 0;
  RunWorkers(m, 4, [&](SimThread& t, uint32_t tid) -> Task<void> {
    asfcommon::Rng rng(55 + tid);
    for (int i = 0; i < 120; ++i) {
      if (i % 8 == 0) {
        uint64_t sum = 0;
        co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
          sum = 0;
          for (auto& a : accounts) {
            sum += co_await tx.Read(&a.value);
          }
        });
        if (sum != kAccounts * 100) {
          ++audit_failures;
        }
        continue;
      }
      uint32_t from = static_cast<uint32_t>(rng.NextBelow(kAccounts));
      uint32_t to = static_cast<uint32_t>(rng.NextBelow(kAccounts));
      co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
        uint64_t f = co_await tx.Read(&accounts[from].value);
        uint64_t v = co_await tx.Read(&accounts[to].value);
        if (f >= 3 && from != to) {
          co_await tx.Write(&accounts[from].value, f - 3);
          co_await tx.Write(&accounts[to].value, v + 3);
        }
      });
    }
  });
  uint64_t total = 0;
  for (auto& a : accounts) {
    total += a.value;
  }
  EXPECT_EQ(total, kAccounts * 100u);
  EXPECT_EQ(audit_failures, 0u);
}

TEST(PhasedTm, CancelledSoftwareBlockIsNotACommit) {
  // One core on LLB-8: a 40-cell read/write block overflows the LLB and
  // flips the system into the software phase, where the next block writes
  // and then cancels. The cancel rolls memory back and must count as an
  // abort only: attempts = commits + aborts, and no quota is spent (with a
  // quota of 2, spending it would drain the phase back to hardware).
  asf::Machine m(QuietParams(asf::AsfVariant::Llb8(), 1));
  PhasedTmParams params;
  params.software_quota = 2;
  PhasedTm rt(m, params);
  std::vector<Cell> cells(40);
  Pretouch(m, cells.data(), cells.size() * sizeof(Cell));
  uint64_t to_hardware_after_cancel = 0;
  RunWorkers(m, 1, [&](SimThread& t, uint32_t) -> Task<void> {
    co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
      for (auto& c : cells) {
        uint64_t v = co_await tx.Read(&c.value);
        co_await tx.Write(&c.value, v + 1);
      }
    });
    co_await rt.Atomic(t, [&](Tx& tx) -> Task<void> {
      co_await tx.Write(&cells[0].value, uint64_t{99});
      co_await tx.UserAbort();
    });
    to_hardware_after_cancel = rt.switches_to_hardware();
  });
  for (auto& c : cells) {
    EXPECT_EQ(c.value, 1u);
  }
  TxStats s = rt.TotalStats();
  EXPECT_EQ(rt.switches_to_software(), 1u);
  EXPECT_EQ(s.stm_commits, 1u);
  EXPECT_EQ(s.Aborts(AbortCause::kUserAbort), 1u);
  EXPECT_EQ(s.TotalAttempts(), 3u);
  EXPECT_EQ(s.Commits() + s.TotalAborts(), s.TotalAttempts());
  EXPECT_EQ(to_hardware_after_cancel, 0u);
}

}  // namespace
}  // namespace asftm
