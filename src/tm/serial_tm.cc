// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/serial_tm.h"

#include <cstring>

#include "src/tm/tx_observe.h"

namespace asftm {

using asfcommon::AbortCause;
using asfsim::AccessKind;
using asfsim::SimThread;
using asfsim::Task;

// Uninstrumented transaction handle: barriers are the bare accesses.
class SeqTx : public Tx {
 public:
  SeqTx(SimThread& t, TxAllocator& alloc) : Tx(t), alloc_(alloc) {}

  bool irrevocable() const override { return true; }

  Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) override {
    co_await thread().Access(AccessKind::kLoad, addr, size);
    uint64_t v = 0;
    std::memcpy(&v, reinterpret_cast<const void*>(addr), size);
    co_return v;
  }

  Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) override {
    co_await thread().Store(AccessKind::kStore, addr, size, value);
  }

  Task<void*> TxMalloc(uint64_t bytes) override {
    SimThread& t = thread();
    t.core().WorkInstructions(12);
    void* p = alloc_.TryAlloc(bytes);
    if (p == nullptr) {
      co_await t.Access(AccessKind::kSyscall, uint64_t{0}, 1);
      alloc_.Refill(bytes);
      p = alloc_.TryAlloc(bytes);
      ASF_CHECK(p != nullptr);
    }
    co_return p;
  }

  Task<void> TxFree(void* p) override {
    thread().core().WorkInstructions(4);
    alloc_.DeferFree(p);
    co_return;
  }

  Task<void> UserAbort() override {
    ASF_CHECK_MSG(false, "UserAbort without a TM (sequential execution)");
    co_return;
  }

 private:
  TxAllocator& alloc_;
};

SequentialTm::SequentialTm(asf::Machine& machine) : RuntimeBase(machine) {
  AddThreads();
  WarmAllocators();
}

SequentialTm::~SequentialTm() = default;

Task<void> SequentialTm::Atomic(SimThread& t, uint32_t /*site*/, BodyFn body) {
  TxThread& pt = *threads_[t.id()];
  ++pt.stats.tx_started;
  // Sequential execution is a degenerate serial-irrevocable block: one
  // attempt, no aborts, no attempt accounting (attempt = 0).
  EmitTxEvent(machine_, t, asfobs::TxEventKind::kTxBegin, asfobs::TxMode::kSerial,
              asfcommon::AbortCause::kNone, 0, 0);
  pt.alloc.OnAttemptStart();
  SeqTx tx(t, pt.alloc);
  co_await body(tx);
  pt.alloc.OnCommit();
  ++pt.stats.seq_commits;
  EmitTxEvent(machine_, t, asfobs::TxEventKind::kTxCommit, asfobs::TxMode::kSerial,
              asfcommon::AbortCause::kNone, 0, 0);
}

GlobalLockTm::GlobalLockTm(asf::Machine& machine) : RuntimeBase(machine) {
  lock_word_ = machine.arena().New<LockWord>();
  AddThreads();
  WarmAllocators();
  machine.mem().PretouchPages(reinterpret_cast<uint64_t>(lock_word_), sizeof(LockWord));
}

GlobalLockTm::~GlobalLockTm() = default;

Task<void> GlobalLockTm::Atomic(SimThread& t, uint32_t /*site*/, BodyFn body) {
  TxThread& pt = *threads_[t.id()];
  ++pt.stats.tx_started;
  // Begin before the acquire so lock-wait time is part of block latency —
  // the tail a lock-based runtime actually exposes to its callers.
  EmitTxEvent(machine_, t, asfobs::TxEventKind::kTxBegin, asfobs::TxMode::kLock,
              asfcommon::AbortCause::kNone, 0, 0);
  co_await mutex_.Acquire(t);
  // Model the lock's cache-line transfer (the handoff cost a real spinlock
  // pays even uncontended).
  co_await t.Cas(&lock_word_->word, 8, 0, 1);
  pt.alloc.OnAttemptStart();
  SeqTx tx(t, pt.alloc);
  co_await body(tx);
  co_await t.Store(AccessKind::kStore, &lock_word_->word, 8, 0);
  mutex_.Release(t);
  pt.alloc.OnCommit();
  ++pt.stats.seq_commits;
  EmitTxEvent(machine_, t, asfobs::TxEventKind::kTxCommit, asfobs::TxMode::kLock,
              asfcommon::AbortCause::kNone, 0, 0);
}

}  // namespace asftm
