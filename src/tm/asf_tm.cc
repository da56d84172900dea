// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/asf_tm.h"

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

// Transaction handle for the hardware (speculative-region) path: barriers
// map 1:1 onto LOCK MOV / RELEASE.
class AsfHwTx : public Tx {
 public:
  AsfHwTx(AsfTm& rt, SimThread& t, AsfTm::PerThread& pt) : Tx(t), rt_(rt), pt_(pt) {}

  Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.barrier_instructions);
    co_await t.Access(AccessKind::kTxLoad, addr, size);
    // Safe to read host directly: the line is monitored, so any conflicting
    // remote write would have aborted this region before we resumed.
    uint64_t v = 0;
    std::memcpy(&v, reinterpret_cast<const void*>(addr), size);
    co_return v;
  }

  Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.barrier_instructions);
    co_await t.Store(AccessKind::kTxStore, addr, size, value);
  }

  Task<void> ReleaseBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.barrier_instructions);
    co_await t.Access(AccessKind::kRelease, addr, size);
  }

  Task<void*> TxMalloc(uint64_t bytes) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxNonInstr);
    t.core().WorkInstructions(rt_.params_.alloc_instructions);
    void* p = pt_.alloc.TryAlloc(bytes);
    if (p == nullptr) {
      // Refilling needs the default allocator; not abort-safe inside a
      // region. Abort; the retry loop refills nonspeculatively.
      pt_.refill_bytes = bytes;
      co_await rt_.machine_.AbortRegion(t, AbortCause::kMallocRefill);
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
    co_await rt_.machine_.AbortRegion(thread(), AbortCause::kUserAbort);
  }

 private:
  AsfTm& rt_;
  AsfTm::PerThread& pt_;
};

// Transaction handle for serial-irrevocable mode: plain accesses, no
// speculation, no rollback capability.
class AsfSerialTx : public Tx {
 public:
  AsfSerialTx(AsfTm& rt, SimThread& t, AsfTm::PerThread& pt) : Tx(t), rt_(rt), pt_(pt) {}

  bool irrevocable() const override { return true; }

  Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.barrier_instructions);
    co_await t.Access(AccessKind::kLoad, addr, size);
    // Serial-irrevocable: no concurrent transactions can be in flight.
    uint64_t v = 0;
    std::memcpy(&v, reinterpret_cast<const void*>(addr), size);
    co_return v;
  }

  Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.barrier_instructions);
    // Undo-log the old value so a language-level cancel can roll the serial
    // attempt back (nothing runs concurrently, so plain logging suffices).
    uint64_t old_value = 0;
    std::memcpy(&old_value, reinterpret_cast<const void*>(addr), size);
    pt_.serial_undo.push_back({addr, size, old_value});
    co_await t.Store(AccessKind::kStore, addr, size, value);
  }

  Task<void*> TxMalloc(uint64_t bytes) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxNonInstr);
    t.core().WorkInstructions(rt_.params_.alloc_instructions);
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
    // Language-level cancel in serial mode: restore the undo log in reverse,
    // then unwind the attempt.
    SimThread& t = thread();
    for (size_t i = pt_.serial_undo.size(); i-- > 0;) {
      const AsfTm::SerialUndoEntry& e = pt_.serial_undo[i];
      co_await t.Store(AccessKind::kStore, e.addr, e.size, e.old_value);
    }
    co_await t.AbortSelf(asfcommon::AbortCause::kUserAbort);
  }

 private:
  AsfTm& rt_;
  AsfTm::PerThread& pt_;
};

AsfTm::AsfTm(asf::Machine& machine, const AsfTmParams& params)
    : machine_(machine), params_(params), policy_(params.policy) {
  if (policy_ == nullptr) {
    ExpBackoffParams pp;
    pp.base_cycles = params.backoff_base_cycles;
    pp.shift_cap = params.backoff_shift_cap;
    pp.max_retries = params.max_contention_retries;
    pp.capacity_serializes = params.capacity_goes_serial;
    pp.seed = params.rng_seed;
    policy_ = MakeExpBackoffPolicy(pp);
  }
  serial_lock_ = machine.arena().New<SerialLock>();
  const uint32_t n = machine.scheduler().num_cores();
  threads_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto pt = std::make_unique<PerThread>(&machine.arena());
    pt->alloc.Refill(1);  // Warm one chunk per thread.
    threads_.push_back(std::move(pt));
  }
  // The serial lock word is hot runtime state, always resident.
  machine.mem().PretouchPages(reinterpret_cast<uint64_t>(serial_lock_), sizeof(SerialLock));
}

AsfTm::~AsfTm() = default;

std::string AsfTm::name() const {
  return "ASF-TM (" + machine_.params().variant.Name() + ")";
}

Task<void> AsfTm::HwAttempt(SimThread& t, PerThread& pt, const BodyFn& body) {
  Core& core = t.core();
  pt.alloc.OnAttemptStart();
  {
    CategoryGuard g(core, CycleCategory::kTxStartCommit);
    core.WorkInstructions(params_.begin_instructions);
    co_await t.Access(AccessKind::kSpeculate, uint64_t{0}, 1);
    // Monitor the serial lock: a serializing thread's store will abort us.
    co_await t.Access(AccessKind::kTxLoad, &serial_lock_->word, 8);
    if (serial_lock_->word != 0) {
      // A serializer raced past our pre-check; step aside and re-wait.
      co_await machine_.AbortRegion(t, AbortCause::kRestartSerial);
    }
  }
  {
    CategoryGuard g(core, CycleCategory::kTxAppCode);
    AsfHwTx tx(*this, t, pt);
    co_await body(tx);
  }
  {
    CategoryGuard g(core, CycleCategory::kTxStartCommit);
    core.WorkInstructions(params_.commit_instructions);
    // COMMIT clears the protected set; snapshot its size for the lifecycle
    // event the retry loop emits after the attempt returns.
    asf::AsfContext& ctx = machine_.context(t.id());
    pt.last_read_lines = ctx.read_set_lines();
    pt.last_write_lines = ctx.write_set_lines();
    co_await t.Access(AccessKind::kCommit, uint64_t{0}, 1);
  }
}

Task<void> AsfTm::SerialBody(SimThread& t, PerThread& pt, const BodyFn& body) {
  CategoryGuard g(t.core(), CycleCategory::kTxAppCode);
  AsfSerialTx tx(*this, t, pt);
  co_await body(tx);
}

Task<void> AsfTm::RunSerial(SimThread& t, PerThread& pt, const BodyFn& body, uint32_t retry) {
  Core& core = t.core();
  co_await serial_mutex_.Acquire(t);
  ++pt.stats.serial_attempts;
  EmitTxEvent(machine_, t, TxEventKind::kTxBegin, TxMode::kSerial, AbortCause::kNone, 0, retry);
  {
    CategoryGuard g(core, CycleCategory::kTxStartCommit);
    core.WorkInstructions(params_.begin_instructions);
    // Taking the lock word aborts every in-flight hardware transaction
    // (they all monitor this line).
    co_await t.Store(AccessKind::kStore, &serial_lock_->word, 8, 1);
  }
  pt.alloc.OnAttemptStart();
  pt.serial_undo.clear();
  // The body runs in an abortable scope so Tx::UserAbort can unwind it (the
  // undo log has already restored memory by then). Nothing else aborts a
  // serial attempt: there is no ASF region and no concurrent transaction.
  AbortCause cause = co_await t.RunAbortable(SerialBody(t, pt, body));
  {
    CategoryGuard g(core, CycleCategory::kTxStartCommit);
    core.WorkInstructions(params_.commit_instructions);
    co_await t.Store(AccessKind::kStore, &serial_lock_->word, 8, 0);
  }
  serial_mutex_.Release(t);
  if (cause == AbortCause::kNone) {
    pt.alloc.OnCommit();
    ++pt.stats.serial_commits;
    EmitTxEvent(machine_, t, TxEventKind::kTxCommit, TxMode::kSerial, AbortCause::kNone, 0, retry,
                0, pt.serial_undo.size());
  } else {
    ASF_CHECK_MSG(cause == AbortCause::kUserAbort, "unexpected serial-mode abort");
    pt.alloc.OnAbort();
    ++pt.stats.aborts[static_cast<size_t>(AbortCause::kUserAbort)];
    EmitTxEvent(machine_, t, TxEventKind::kTxAbort, TxMode::kSerial, AbortCause::kUserAbort, 0,
                retry);
  }
}

Task<void> AsfTm::Backoff(SimThread& t, PerThread& pt, uint64_t wait, uint32_t retry) {
  pt.stats.backoff_cycles += wait;
  EmitTxEvent(machine_, t, TxEventKind::kBackoffStart, TxMode::kHardware, AbortCause::kNone, 0,
              retry);
  co_await t.Sleep(wait);
  EmitTxEvent(machine_, t, TxEventKind::kBackoffEnd, TxMode::kHardware, AbortCause::kNone, 0,
              retry, wait);
}

Task<void> AsfTm::Atomic(SimThread& t, uint32_t site, BodyFn body) {
  PerThread& pt = *threads_[t.id()];
  Core& core = t.core();
  ++pt.stats.tx_started;
  policy_->OnBlockStart(t.id(), site);
  uint32_t aborted_attempts = 0;  // Lifecycle retry ordinal for this block.
  bool go_serial = false;
  for (;;) {
    if (go_serial) {
      EmitTxEvent(machine_, t, TxEventKind::kFallbackTransition, TxMode::kSerial,
                  AbortCause::kNone, 0, aborted_attempts,
                  static_cast<uint64_t>(TxMode::kHardware));
      co_await RunSerial(t, pt, body, aborted_attempts);
      co_return;
    }
    // Wait for any serializer to drain before speculating (cheap pre-check;
    // the in-region monitor catches races).
    for (;;) {
      CategoryGuard g(core, CycleCategory::kTxStartCommit);
      co_await t.Access(AccessKind::kLoad, &serial_lock_->word, 8);
      if (serial_lock_->word == 0) {
        break;
      }
      co_await t.Sleep(128);
    }
    ++pt.stats.hw_attempts;
    core.BeginAttemptAccounting();
    EmitTxEvent(machine_, t, TxEventKind::kTxBegin, TxMode::kHardware, AbortCause::kNone,
                core.attempt_seq(), aborted_attempts);
    AbortCause cause = co_await t.RunAbortable(HwAttempt(t, pt, body));
    if (cause == AbortCause::kNone) {
      core.CommitAttemptAccounting();
      pt.alloc.OnCommit();
      ++pt.stats.hw_commits;
      EmitTxEvent(machine_, t, TxEventKind::kTxCommit, TxMode::kHardware, AbortCause::kNone,
                  core.attempt_seq(), aborted_attempts, pt.last_read_lines, pt.last_write_lines);
      co_return;
    }
    core.AbortAttemptAccounting();
    ++pt.stats.aborts[static_cast<size_t>(cause)];
    pt.alloc.OnAbort();
    EmitTxEvent(machine_, t, TxEventKind::kTxAbort, TxMode::kHardware, cause, core.attempt_seq(),
                aborted_attempts);
    ++aborted_attempts;
    switch (cause) {
      case AbortCause::kRestartSerial:
        break;  // Re-wait for the serializer; not a real retry.
      case AbortCause::kUserAbort:
        co_return;  // Language-level cancel: no retry.
      case AbortCause::kMallocRefill: {
        // Refill nonspeculatively (heap growth = system call), then retry.
        CategoryGuard g(core, CycleCategory::kTxAbortWaste);
        co_await t.Access(AccessKind::kSyscall, uint64_t{0}, 1);
        pt.alloc.Refill(pt.refill_bytes);
        break;
      }
      default: {
        // Everything else — contention, capacity, transient OS events,
        // disallowed instructions — is contention management's call.
        PolicyDecision d = policy_->OnAbort(t.id(), cause, site);
        if (d.action == PolicyAction::kSerialize) {
          go_serial = true;
        } else if (d.action == PolicyAction::kBackoffRetry) {
          co_await Backoff(t, pt, d.backoff_cycles, aborted_attempts);
        }
        break;
      }
    }
  }
}

TxStats AsfTm::TotalStats() const {
  TxStats total;
  for (const auto& pt : threads_) {
    total.Add(pt->stats);
  }
  return total;
}

void AsfTm::ResetStats() {
  for (auto& pt : threads_) {
    pt->stats = TxStats{};
  }
}

uint64_t AsfTm::TotalRefills() const {
  uint64_t n = 0;
  for (const auto& pt : threads_) {
    n += pt->alloc.refills();
  }
  return n;
}

}  // namespace asftm
