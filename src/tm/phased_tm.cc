// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/phased_tm.h"

#include "src/tm/tx_observe.h"

namespace asftm {

using asfcommon::AbortCause;
using asfobs::TxEventKind;
using asfobs::TxMode;
using asfsim::AccessKind;
using asfsim::SimThread;
using asfsim::Task;

PhasedTm::PhasedTm(asf::Machine& machine, const PhasedTmParams& params)
    : RetryDriver(machine, TxMode::kHardware, params.policy, params.rng_seed),
      software_quota_(params.software_quota) {
  costs_ = {params.begin_instructions, params.commit_instructions, params.barrier_instructions,
            params.alloc_instructions};
  phase_ = machine.arena().New<PhaseState>();
  gate_ = &phase_->phase;
  TinyStmParams stm_params;
  stm_params.orec_count_log2 = params.stm_orec_count_log2;
  stm_params.max_read_set = params.stm_max_read_set;
  stm_params.max_write_set = params.stm_max_write_set;
  stm_params.rng_seed = params.rng_seed ^ 0xF00D;
  stm_ = std::make_unique<TinyStm>(machine, stm_params);
  AddThreads();
  WarmAllocators();
  machine.mem().PretouchPages(reinterpret_cast<uint64_t>(phase_), sizeof(PhaseState));
}

PhasedTm::~PhasedTm() = default;

std::string PhasedTm::name() const {
  return "PhasedTM (" + machine_.params().variant.Name() + " / TinySTM)";
}

// The store to the phase word aborts every in-flight hardware transaction
// monitoring it.
Task<bool> PhasedTm::Fallback(SimThread& t, TxThread&, BodyFn&, uint32_t retry) {
  co_await t.Store(AccessKind::kStore, &phase_->software_budget, 8, software_quota_);
  co_await t.Store(AccessKind::kStore, &phase_->phase, 8, kSoftware);
  ++to_software_;
  EmitTxEvent(machine_, t, TxEventKind::kFallbackTransition, TxMode::kStm, AbortCause::kNone, 0,
              retry, static_cast<uint64_t>(TxMode::kHardware));
  co_return false;
}

Task<bool> PhasedTm::GateClosed(SimThread& t, TxThread& pt, BodyFn& body) {
  if (phase_->phase == kDraining) {
    // A switch back to hardware is in progress; wait it out.
    co_await t.Sleep(128);
    co_return false;
  }
  co_await t.FetchAdd(&phase_->active_software, 8, 1);
  co_await t.Access(AccessKind::kLoad, &phase_->phase, 8);
  if (phase_->phase != kSoftware) {
    // The phase flipped before we started; deregister and retry.
    co_await t.FetchAdd(&phase_->active_software, 8, static_cast<uint64_t>(-1));
    co_return false;
  }
  const uint64_t stm_commits = stm_->stats(t.id()).stm_commits;
  co_await stm_->Atomic(t, std::move(body));
  if (stm_->stats(t.id()).stm_commits == stm_commits) {
    // Cancelled by Tx::UserAbort: not a commit, so it spends no quota.
    co_await t.FetchAdd(&phase_->active_software, 8, static_cast<uint64_t>(-1));
    co_return true;
  }
  ++pt.stats.stm_commits;
  uint64_t budget_before =
      co_await t.FetchAdd(&phase_->software_budget, 8, static_cast<uint64_t>(-1));
  co_await t.FetchAdd(&phase_->active_software, 8, static_cast<uint64_t>(-1));
  if (static_cast<int64_t>(budget_before) <= 1) {
    // Quota exhausted: drain the software phase. kDraining blocks new
    // software registrations; once the active count reaches zero it is
    // safe to re-enter the hardware phase (software and hardware
    // transactions must never overlap — they cannot see each other's
    // conflict metadata).
    uint64_t won = co_await t.Cas(&phase_->phase, 8, kSoftware, kDraining);
    if (won != 0) {
      for (;;) {
        co_await t.Access(AccessKind::kLoad, &phase_->active_software, 8);
        if (phase_->active_software == 0) {
          break;
        }
        co_await t.Sleep(100);
      }
      co_await t.Store(AccessKind::kStore, &phase_->phase, 8, kHardware);
      ++to_hardware_;
      EmitTxEvent(machine_, t, TxEventKind::kFallbackTransition, TxMode::kHardware,
                  AbortCause::kNone, 0, 0, static_cast<uint64_t>(TxMode::kStm));
    }
  }
  co_return true;
}

TxStats PhasedTm::TotalStats() const {
  TxStats total = RetryDriver::TotalStats();
  TxStats stm = stm_->TotalStats();
  total.stm_attempts += stm.stm_attempts;
  total.backoff_cycles += stm.backoff_cycles;
  for (size_t i = 0; i < total.aborts.size(); ++i) {
    total.aborts[i] += stm.aborts[i];
  }
  return total;
}

void PhasedTm::ResetStats() {
  RetryDriver::ResetStats();
  stm_->ResetStats();
}

}  // namespace asftm
