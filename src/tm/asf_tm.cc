// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/asf_tm.h"

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

AsfTm::AsfTm(asf::Machine& machine, const AsfTmParams& params)
    : RetryDriver(machine, TxMode::kHardware, params.policy, params.rng_seed) {
  costs_ = {params.begin_instructions, params.commit_instructions, params.barrier_instructions,
            params.alloc_instructions};
  serial_lock_ = machine.arena().New<SerialLock>();
  gate_ = &serial_lock_->word;
  AddThreads();
  WarmAllocators();
  // The serial lock word is hot runtime state, always resident.
  machine.mem().PretouchPages(reinterpret_cast<uint64_t>(serial_lock_), sizeof(SerialLock));
}

AsfTm::~AsfTm() = default;

std::string AsfTm::name() const {
  return "ASF-TM (" + machine_.params().variant.Name() + ")";
}

Task<bool> AsfTm::Fallback(SimThread& t, TxThread& pt, BodyFn& body, uint32_t retry) {
  Core& core = t.core();
  EmitTxEvent(machine_, t, TxEventKind::kFallbackTransition, TxMode::kSerial, AbortCause::kNone,
              0, retry, static_cast<uint64_t>(TxMode::kHardware));
  co_await serial_mutex_.Acquire(t);
  ++pt.stats.serial_attempts;
  EmitTxEvent(machine_, t, TxEventKind::kTxBegin, TxMode::kSerial, AbortCause::kNone, 0, retry);
  {
    CategoryGuard g(core, CycleCategory::kTxStartCommit);
    core.WorkInstructions(costs_.begin_instructions);
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
    core.WorkInstructions(costs_.commit_instructions);
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
  co_return true;
}

}  // namespace asftm
