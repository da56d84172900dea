// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/lock_elision.h"

#include <cstring>

#include "src/tm/tx_observe.h"

namespace asftm {

using asfcommon::AbortCause;
using asfobs::TxEventKind;
using asfobs::TxMode;
using asfsim::AccessKind;
using asfsim::CategoryGuard;
using asfsim::CycleCategory;
using asfsim::SimThread;
using asfsim::Task;

ElidableLock::ElidableLock(asf::Machine& machine, const ElisionParams& params)
    : machine_(machine), params_(params), policy_(params.policy) {
  if (policy_ == nullptr) {
    ExpBackoffParams pp;
    pp.base_cycles = params.backoff_base_cycles;
    pp.shift_cap = 6;
    pp.max_retries = params.max_elision_retries;
    // An oversized critical section keeps retrying until the budget is
    // spent, like the historical behavior (capacity does not short-circuit
    // to the real lock).
    pp.capacity_serializes = false;
    pp.seed = params.rng_seed;
    pp.seed_stride = 0;  // Historically one shared RNG across threads.
    policy_ = MakeExpBackoffPolicy(pp);
  }
  lock_word_ = machine.arena().New<LockWord>();
  machine.mem().PretouchPages(reinterpret_cast<uint64_t>(lock_word_), sizeof(LockWord));
}

Task<void> ElidableLock::ElidedAttempt(SimThread& t, const Body& body, uint64_t* rs,
                                       uint64_t* ws) {
  co_await t.Access(AccessKind::kSpeculate, uint64_t{0}, 1);
  // Monitor the lock word without writing it: the lock stays free for other
  // elisions; a real acquisition's store aborts us (requester wins).
  co_await t.Access(AccessKind::kTxLoad, &lock_word_->word, 8);
  if (lock_word_->word != 0) {
    // Actually held: cannot elide right now.
    co_await machine_.AbortRegion(t, AbortCause::kRestartSerial);
  }
  co_await body(/*elided=*/true);
  asf::AsfContext& ctx = machine_.context(t.id());
  *rs = ctx.read_set_lines();
  *ws = ctx.write_set_lines();
  co_await t.Access(AccessKind::kCommit, uint64_t{0}, 1);
}

Task<AbortCause> ElidableLock::TryElide(SimThread& t, const Body& body, TxStats* stats,
                                        uint32_t retry) {
  // Wait until the lock looks free before speculating.
  for (;;) {
    co_await t.Access(AccessKind::kLoad, &lock_word_->word, 8);
    if (lock_word_->word == 0) {
      break;
    }
    co_await t.Sleep(100);
  }
  if (stats != nullptr) {
    ++stats->hw_attempts;
  }
  EmitTxEvent(machine_, t, TxEventKind::kTxBegin, TxMode::kElision, AbortCause::kNone, 0, retry);
  uint64_t rs = 0;
  uint64_t ws = 0;
  AbortCause cause = co_await t.RunAbortable(ElidedAttempt(t, body, &rs, &ws));
  if (cause == AbortCause::kNone) {
    ++elided_commits_;
    if (stats != nullptr) {
      ++stats->hw_commits;
    }
    EmitTxEvent(machine_, t, TxEventKind::kTxCommit, TxMode::kElision, AbortCause::kNone, 0,
                retry, rs, ws);
    co_return cause;
  }
  ++elision_aborts_;
  if (stats != nullptr) {
    ++stats->aborts[static_cast<size_t>(cause)];
  }
  EmitTxEvent(machine_, t, TxEventKind::kTxAbort, TxMode::kElision, cause, 0, retry);
  co_return cause;
}

Task<void> ElidableLock::RunLocked(SimThread& t, const Body& body, TxStats* stats) {
  EmitTxEvent(machine_, t, TxEventKind::kFallbackTransition, TxMode::kLock, AbortCause::kNone, 0,
              0, static_cast<uint64_t>(TxMode::kElision));
  co_await fallback_.Acquire(t);
  // The store aborts every concurrent elision monitoring the word.
  co_await t.Store(AccessKind::kStore, &lock_word_->word, 8, 1);
  ++real_acquisitions_;
  if (stats != nullptr) {
    ++stats->serial_attempts;
  }
  EmitTxEvent(machine_, t, TxEventKind::kTxBegin, TxMode::kLock, AbortCause::kNone, 0, 0);
  co_await body(/*elided=*/false);
  co_await t.Store(AccessKind::kStore, &lock_word_->word, 8, 0);
  fallback_.Release(t);
  if (stats != nullptr) {
    ++stats->serial_commits;
  }
  EmitTxEvent(machine_, t, TxEventKind::kTxCommit, TxMode::kLock, AbortCause::kNone, 0, 0);
}

Task<void> ElidableLock::Backoff(SimThread& t, uint64_t wait, uint32_t retry, TxStats* stats) {
  if (stats != nullptr) {
    stats->backoff_cycles += wait;
  }
  EmitTxEvent(machine_, t, TxEventKind::kBackoffStart, TxMode::kElision, AbortCause::kNone, 0,
              retry);
  co_await t.Sleep(wait);
  EmitTxEvent(machine_, t, TxEventKind::kBackoffEnd, TxMode::kElision, AbortCause::kNone, 0,
              retry, wait);
}

Task<void> ElidableLock::CriticalSection(SimThread& t, Body body, TxStats* stats,
                                         uint32_t site) {
  policy_->OnBlockStart(t.id(), site);
  uint32_t aborted = 0;  // Lifecycle retry ordinal within this section.
  bool take_lock = params_.always_acquire;
  while (!take_lock) {
    AbortCause cause = co_await TryElide(t, body, stats, aborted);
    if (cause == AbortCause::kNone) {
      co_return;
    }
    ++aborted;
    if (cause == AbortCause::kRestartSerial) {
      continue;  // Lock was held; waiting again is not a failed elision.
    }
    PolicyDecision d = policy_->OnAbort(t.id(), cause, site);
    if (d.action == PolicyAction::kSerialize) {
      take_lock = true;
    } else if (d.action == PolicyAction::kBackoffRetry) {
      co_await Backoff(t, d.backoff_cycles, aborted, stats);
    }
  }
  co_await RunLocked(t, body, stats);
}

// Transaction handle for ElisionTm: transactional accesses while elided,
// plain irrevocable accesses while the real lock is held.
class ElisionTx : public Tx {
 public:
  ElisionTx(ElisionTm& rt, SimThread& t, ElisionTm::PerThread& pt, bool elided)
      : Tx(t), rt_(rt), pt_(pt), elided_(elided) {}

  bool irrevocable() const override { return !elided_; }

  Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.barrier_instructions);
    co_await t.Access(elided_ ? AccessKind::kTxLoad : AccessKind::kLoad, addr, size);
    uint64_t v = 0;
    std::memcpy(&v, reinterpret_cast<const void*>(addr), size);
    co_return v;
  }

  Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.barrier_instructions);
    co_await t.Store(elided_ ? AccessKind::kTxStore : AccessKind::kStore, addr, size, value);
  }

  Task<void> ReleaseBarrier(uint64_t addr, uint32_t size) override {
    if (!elided_) {
      co_return;  // Nothing monitored under the real lock.
    }
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    co_await t.Access(AccessKind::kRelease, addr, size);
  }

  Task<void*> TxMalloc(uint64_t bytes) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxNonInstr);
    t.core().WorkInstructions(rt_.params_.alloc_instructions);
    void* p = pt_.alloc.TryAlloc(bytes);
    if (p == nullptr) {
      if (elided_) {
        // Refilling means a system call, which cannot run speculatively:
        // abort, refill nonspeculatively, retry the section.
        pt_.refill_bytes = bytes;
        co_await rt_.machine_.AbortRegion(t, AbortCause::kMallocRefill);
      }
      // Lock held: refill inline (heap growth = system call).
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
    ASF_CHECK_MSG(elided_,
                  "ElisionTm: UserAbort is unsupported while the real lock is held "
                  "(a plain lock has no rollback mechanism)");
    co_await rt_.machine_.AbortRegion(thread(), AbortCause::kUserAbort);
  }

 private:
  ElisionTm& rt_;
  ElisionTm::PerThread& pt_;
  const bool elided_;
};

ElisionTm::ElisionTm(asf::Machine& machine, const ElisionTmParams& params)
    : machine_(machine), params_(params) {
  lock_ = std::make_unique<ElidableLock>(machine, params.lock);
  const uint32_t n = machine.scheduler().num_cores();
  for (uint32_t i = 0; i < n; ++i) {
    auto pt = std::make_unique<PerThread>(&machine.arena());
    pt->alloc.Refill(1);
    threads_.push_back(std::move(pt));
  }
}

ElisionTm::~ElisionTm() = default;

std::string ElisionTm::name() const {
  return "LockElision (" + machine_.params().variant.Name() + ")";
}

Task<void> ElisionTm::Atomic(SimThread& t, uint32_t site, BodyFn body) {
  PerThread& pt = *threads_[t.id()];
  ++pt.stats.tx_started;
  ElidableLock& lk = *lock_;
  lk.policy().OnBlockStart(t.id(), site);
  ElidableLock::Body section = [&](bool elided) -> Task<void> {
    CategoryGuard g(t.core(), CycleCategory::kTxAppCode);
    ElisionTx tx(*this, t, pt, elided);
    co_await body(tx);
  };
  uint32_t aborted = 0;  // Lifecycle retry ordinal within this block.
  bool take_lock = lk.always_acquire();
  while (!take_lock) {
    pt.alloc.OnAttemptStart();
    AbortCause cause = co_await lk.TryElide(t, section, &pt.stats, aborted);
    if (cause == AbortCause::kNone) {
      pt.alloc.OnCommit();
      co_return;
    }
    pt.alloc.OnAbort();
    ++aborted;
    switch (cause) {
      case AbortCause::kRestartSerial:
        continue;  // Lock was held; waiting again is not a failed elision.
      case AbortCause::kUserAbort:
        co_return;  // Language-level cancel: the block is done.
      case AbortCause::kMallocRefill: {
        co_await t.Access(AccessKind::kSyscall, uint64_t{0}, 1);
        pt.alloc.Refill(pt.refill_bytes);
        continue;
      }
      default: {
        PolicyDecision d = lk.policy().OnAbort(t.id(), cause, site);
        if (d.action == PolicyAction::kSerialize) {
          take_lock = true;
        } else if (d.action == PolicyAction::kBackoffRetry) {
          co_await lk.Backoff(t, d.backoff_cycles, aborted, &pt.stats);
        }
        continue;
      }
    }
  }
  pt.alloc.OnAttemptStart();
  co_await lk.RunLocked(t, section, &pt.stats);
  pt.alloc.OnCommit();
}

TxStats ElisionTm::TotalStats() const {
  TxStats total;
  for (const auto& pt : threads_) {
    total.Add(pt->stats);
  }
  return total;
}

void ElisionTm::ResetStats() {
  for (auto& pt : threads_) {
    pt->stats = TxStats{};
  }
}

}  // namespace asftm
