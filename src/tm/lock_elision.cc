// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/lock_elision.h"

#include "src/tm/tx_observe.h"

namespace asftm {

using asfcommon::AbortCause;
using asfobs::TxEventKind;
using asfobs::TxMode;
using asfsim::AccessKind;
using asfsim::SimThread;
using asfsim::Task;

ElidableLock::ElidableLock(asf::Machine& machine, const ElisionParams& params)
    : RetryDriver(machine, TxMode::kElision, params.policy, params.rng_seed) {
  // The elided section is the lock's own code: no ABI glue around
  // SPECULATE and COMMIT.
  costs_.begin_instructions = 0;
  costs_.commit_instructions = 0;
  lock_word_ = machine.arena().New<LockWord>();
  gate_ = &lock_word_->word;
  gate_poll_cycles_ = 100;
  always_fallback_ = params.always_acquire;
  AddThreads();
  machine.mem().PretouchPages(reinterpret_cast<uint64_t>(lock_word_), sizeof(LockWord));
}

std::string ElidableLock::name() const {
  return "LockElision (" + machine_.params().variant.Name() + ")";
}

Task<void> ElidableLock::CriticalSection(SimThread& t, Body body) {
  return Atomic(t, [body = std::move(body)](Tx& tx) { return body(!tx.irrevocable()); });
}

Task<bool> ElidableLock::Fallback(SimThread& t, TxThread& pt, BodyFn& body, uint32_t) {
  EmitTxEvent(machine_, t, TxEventKind::kFallbackTransition, TxMode::kLock, AbortCause::kNone, 0,
              0, static_cast<uint64_t>(TxMode::kElision));
  co_await fallback_.Acquire(t);
  co_await t.Store(AccessKind::kStore, &lock_word_->word, 8, 1);
  ++pt.stats.serial_attempts;
  EmitTxEvent(machine_, t, TxEventKind::kTxBegin, TxMode::kLock, AbortCause::kNone, 0, 0);
  pt.alloc.OnAttemptStart();
  pt.serial_undo.clear();
  // Abortable so that Tx::UserAbort rolls the section back through the
  // undo log, as in ASF-TM's serial mode.
  AbortCause cause = co_await t.RunAbortable(SerialBody(t, pt, body));
  co_await t.Store(AccessKind::kStore, &lock_word_->word, 8, 0);
  fallback_.Release(t);
  if (cause == AbortCause::kNone) {
    pt.alloc.OnCommit();
    ++pt.stats.serial_commits;
    EmitTxEvent(machine_, t, TxEventKind::kTxCommit, TxMode::kLock, AbortCause::kNone, 0, 0);
  } else {
    pt.alloc.OnAbort();
    ++pt.stats.aborts[static_cast<size_t>(AbortCause::kUserAbort)];
    EmitTxEvent(machine_, t, TxEventKind::kTxAbort, TxMode::kLock, AbortCause::kUserAbort, 0, 0);
  }
  co_return true;
}

ElisionTm::ElisionTm(asf::Machine& machine, const ElisionTmParams& params)
    : ElidableLock(machine, params.lock) {
  costs_.barrier_instructions = params.barrier_instructions;
  WarmAllocators();
}

}  // namespace asftm
