// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/tx_driver.h"

#include <cstring>

#include "src/tm/tx_observe.h"

namespace asftm {

using asfcommon::AbortCause;
using asfobs::TxEventKind;
using asfobs::TxMode;
using asfsim::AccessKind;
using asfsim::CategoryGuard;
using asfsim::Core;
using asfsim::CycleCategory;
using asfsim::SimThread;
using asfsim::Task;

namespace {

uint64_t ReadHost(uint64_t addr, uint32_t size) {
  uint64_t v = 0;
  std::memcpy(&v, reinterpret_cast<const void*>(addr), size);
  return v;
}

// Transaction handle for the hardware (speculative-region) path: barriers
// map 1:1 onto LOCK MOV / RELEASE.
class AsfHwTx : public Tx {
 public:
  AsfHwTx(SimThread& t, asf::Machine& machine, const HwCosts& costs, TxThread& pt)
      : Tx(t), machine_(machine), costs_(costs), pt_(pt) {}

  Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(costs_.barrier_instructions);
    co_await t.Access(AccessKind::kTxLoad, addr, size);
    // Safe to read host directly: the line is monitored, so any conflicting
    // remote write would have aborted this region before we resumed.
    co_return ReadHost(addr, size);
  }

  Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(costs_.barrier_instructions);
    co_await t.Store(AccessKind::kTxStore, addr, size, value);
  }

  Task<void> ReleaseBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(costs_.barrier_instructions);
    co_await t.Access(AccessKind::kRelease, addr, size);
  }

  Task<void*> TxMalloc(uint64_t bytes) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxNonInstr);
    t.core().WorkInstructions(costs_.alloc_instructions);
    void* p = pt_.alloc.TryAlloc(bytes);
    if (p == nullptr) {
      // Refilling needs the default allocator; not abort-safe inside a
      // region. Abort; the retry driver refills nonspeculatively.
      pt_.refill_bytes = bytes;
      co_await machine_.AbortRegion(t, AbortCause::kMallocRefill);
    }
    co_return p;
  }

  Task<void> TxFree(void* p) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxNonInstr);
    t.core().WorkInstructions(4);
    pt_.alloc.DeferFree(p);
    co_return;
  }

  Task<void> UserAbort() override {
    co_await machine_.AbortRegion(thread(), AbortCause::kUserAbort);
  }

 private:
  asf::Machine& machine_;
  const HwCosts& costs_;
  TxThread& pt_;
};

// Transaction handle for serial-irrevocable mode and for a held elidable
// lock: plain accesses, no speculation; writes are undo-logged so that
// Tx::UserAbort can roll the block back.
class AsfSerialTx : public Tx {
 public:
  AsfSerialTx(SimThread& t, const HwCosts& costs, TxThread& pt)
      : Tx(t), costs_(costs), pt_(pt) {}

  bool irrevocable() const override { return true; }

  Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(costs_.barrier_instructions);
    co_await t.Access(AccessKind::kLoad, addr, size);
    // Serial-irrevocable: no concurrent transactions can be in flight.
    co_return ReadHost(addr, size);
  }

  Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(costs_.barrier_instructions);
    // Nothing runs concurrently, so plain logging suffices.
    pt_.serial_undo.push_back({addr, size, ReadHost(addr, size)});
    co_await t.Store(AccessKind::kStore, addr, size, value);
  }

  Task<void*> TxMalloc(uint64_t bytes) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxNonInstr);
    t.core().WorkInstructions(costs_.alloc_instructions);
    void* p = pt_.alloc.TryAlloc(bytes);
    if (p == nullptr) {
      // Serialized: refill inline (heap growth = system call).
      co_await t.Access(AccessKind::kSyscall, uint64_t{0}, 1);
      pt_.alloc.Refill(bytes);
      p = pt_.alloc.TryAlloc(bytes);
      ASF_CHECK(p != nullptr);
    }
    co_return p;
  }

  Task<void> TxFree(void* p) override {
    thread().core().WorkInstructions(4);
    pt_.alloc.DeferFree(p);
    co_return;
  }

  Task<void> UserAbort() override {
    // Restore the undo log in reverse, then unwind the attempt.
    SimThread& t = thread();
    for (size_t i = pt_.serial_undo.size(); i-- > 0;) {
      const SerialUndoEntry& e = pt_.serial_undo[i];
      co_await t.Store(AccessKind::kStore, e.addr, e.size, e.old_value);
    }
    co_await t.AbortSelf(AbortCause::kUserAbort);
  }

 private:
  const HwCosts& costs_;
  TxThread& pt_;
};

}  // namespace

TxStats RuntimeBase::TotalStats() const {
  TxStats total;
  for (const auto& pt : threads_) {
    total.Add(pt->stats);
  }
  return total;
}

void RuntimeBase::ResetStats() {
  for (auto& pt : threads_) {
    pt->stats = TxStats{};
  }
}

void RuntimeBase::WarmAllocators() {
  for (auto& pt : threads_) {
    pt->alloc.Refill(1);
  }
}

RetryDriver::RetryDriver(asf::Machine& machine, TxMode mode, const ExpBackoffParams& policy,
                         uint64_t seed)
    : RuntimeBase(machine), mode_(mode), policy_(policy, seed) {}

Task<void> RetryDriver::Atomic(SimThread& t, BodyFn body) {
  TxThread& pt = *threads_[t.id()];
  Core& core = t.core();
  ++pt.stats.tx_started;
  policy_.OnBlockStart(t.id());
  const bool stm = mode_ == TxMode::kStm;
  // Elided attempts are not attempt-accounted; their events carry attempt 0.
  const bool accounted = mode_ != TxMode::kElision;
  uint32_t retry = 0;  // Aborted attempts so far: the lifecycle retry ordinal.
  if (always_fallback_) {
    co_await Fallback(t, pt, body, retry);
    co_return;
  }
  for (;;) {
    if (gate_ != nullptr) {
      {
        CategoryGuard g(core, CycleCategory::kTxStartCommit);
        co_await t.Access(AccessKind::kLoad, gate_, 8);
      }
      if (*gate_ != 0) {
        if (co_await GateClosed(t, pt, body)) {
          co_return;
        }
        continue;
      }
    }
    ++(stm ? pt.stats.stm_attempts : pt.stats.hw_attempts);
    if (accounted) {
      core.BeginAttemptAccounting();
    }
    const uint64_t attempt = accounted ? core.attempt_seq() : 0;
    EmitTxEvent(machine_, t, TxEventKind::kTxBegin, mode_, AbortCause::kNone, attempt, retry);
    pt.alloc.OnAttemptStart();
    AbortCause cause = co_await t.RunAbortable(Attempt(t, pt, body));
    if (cause == AbortCause::kNone) {
      if (accounted) {
        core.CommitAttemptAccounting();
      }
      pt.alloc.OnCommit();
      ++(stm ? pt.stats.stm_commits : pt.stats.hw_commits);
      EmitTxEvent(machine_, t, TxEventKind::kTxCommit, mode_, AbortCause::kNone, attempt, retry,
                  pt.read_count, pt.write_count);
      co_return;
    }
    if (accounted) {
      core.AbortAttemptAccounting();
    }
    ++pt.stats.aborts[static_cast<size_t>(cause)];
    pt.alloc.OnAbort();
    // TinySTM's logs survive the abort and report the sets at death; a
    // hardware abort has discarded its protected set.
    EmitTxEvent(machine_, t, TxEventKind::kTxAbort, mode_, cause, attempt, retry,
                stm ? pt.read_count : 0, stm ? pt.write_count : 0);
    ++retry;
    switch (cause) {
      case AbortCause::kRestartSerial:
        continue;  // A fallback raced past the gate check: dispatch again.
      case AbortCause::kUserAbort:
        co_return;  // Language-level cancel: no retry.
      case AbortCause::kMallocRefill: {
        // Refill nonspeculatively (heap growth = system call), then retry.
        CategoryGuard g(core, CycleCategory::kTxAbortWaste);
        co_await t.Access(AccessKind::kSyscall, uint64_t{0}, 1);
        pt.alloc.Refill(pt.refill_bytes);
        continue;
      }
      default:
        break;
    }
    // Everything else — contention, capacity, transient OS events,
    // disallowed instructions, STM conflicts — is contention management's
    // call.
    PolicyDecision d = policy_.OnAbort(t.id(), cause);
    if (d.action == PolicyAction::kSerialize) {
      if (co_await Fallback(t, pt, body, retry)) {
        co_return;
      }
    } else if (d.action == PolicyAction::kBackoffRetry) {
      // TinySTM numbers a backoff by the attempt that aborted, the hardware
      // runtimes by the attempt that follows it.
      const uint32_t ordinal = stm ? retry - 1 : retry;
      pt.stats.backoff_cycles += d.backoff_cycles;
      EmitTxEvent(machine_, t, TxEventKind::kBackoffStart, mode_, AbortCause::kNone, 0, ordinal);
      co_await t.Sleep(d.backoff_cycles);
      EmitTxEvent(machine_, t, TxEventKind::kBackoffEnd, mode_, AbortCause::kNone, 0, ordinal,
                  d.backoff_cycles);
    }
  }
}

Task<void> RetryDriver::Attempt(SimThread& t, TxThread& pt, const BodyFn& body) {
  Core& core = t.core();
  {
    CategoryGuard g(core, CycleCategory::kTxStartCommit);
    core.WorkInstructions(costs_.begin_instructions);
    co_await t.Access(AccessKind::kSpeculate, uint64_t{0}, 1);
    // Monitor the gate: a fallback's store to it aborts this region.
    co_await t.Access(AccessKind::kTxLoad, gate_, 8);
    if (*gate_ != 0) {
      // A fallback raced past the pre-check; step aside and re-dispatch.
      co_await machine_.AbortRegion(t, AbortCause::kRestartSerial);
    }
  }
  {
    CategoryGuard g(core, CycleCategory::kTxAppCode);
    AsfHwTx tx(t, machine_, costs_, pt);
    co_await body(tx);
  }
  CategoryGuard g(core, CycleCategory::kTxStartCommit);
  core.WorkInstructions(costs_.commit_instructions);
  // COMMIT clears the protected set; snapshot its size for the lifecycle
  // event the driver emits after the attempt returns.
  asf::AsfContext& ctx = machine_.context(t.id());
  pt.read_count = ctx.read_set_lines();
  pt.write_count = ctx.write_set_lines();
  co_await t.Access(AccessKind::kCommit, uint64_t{0}, 1);
}

Task<bool> RetryDriver::GateClosed(SimThread& t, TxThread&, BodyFn&) {
  CategoryGuard g(t.core(), CycleCategory::kTxStartCommit);
  co_await t.Sleep(gate_poll_cycles_);
  co_return false;
}

Task<void> RetryDriver::SerialBody(SimThread& t, TxThread& pt, const BodyFn& body) {
  CategoryGuard g(t.core(), CycleCategory::kTxAppCode);
  AsfSerialTx tx(t, costs_, pt);
  co_await body(tx);
}

}  // namespace asftm
