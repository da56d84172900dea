// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/phased_tm.h"

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

// Hardware-phase transaction handle (like ASF-TM's, but owned by PhasedTm).
class PhasedHwTx : public Tx {
 public:
  PhasedHwTx(PhasedTm& rt, SimThread& t, PhasedTm::PerThread& pt) : Tx(t), rt_(rt), pt_(pt) {}

  Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.barrier_instructions);
    co_await t.Access(AccessKind::kTxLoad, addr, size);
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
    co_await t.Access(AccessKind::kRelease, addr, size);
  }

  Task<void*> TxMalloc(uint64_t bytes) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxNonInstr);
    t.core().WorkInstructions(rt_.params_.alloc_instructions);
    void* p = pt_.alloc.TryAlloc(bytes);
    if (p == nullptr) {
      pt_.refill_bytes = bytes;
      co_await rt_.machine_.AbortRegion(t, AbortCause::kMallocRefill);
    }
    co_return p;
  }

  Task<void> TxFree(void* p) override {
    thread().core().WorkInstructions(4);
    pt_.alloc.DeferFree(p);
    co_return;
  }

  Task<void> UserAbort() override {
    co_await rt_.machine_.AbortRegion(thread(), AbortCause::kUserAbort);
  }

 private:
  PhasedTm& rt_;
  PhasedTm::PerThread& pt_;
};

PhasedTm::PhasedTm(asf::Machine& machine, const PhasedTmParams& params)
    : machine_(machine), params_(params), policy_(params.policy) {
  if (policy_ == nullptr) {
    ExpBackoffParams pp;
    pp.base_cycles = params.backoff_base_cycles;
    pp.shift_cap = params.backoff_shift_cap;
    pp.max_retries = params.max_contention_retries;
    // Capacity is what the software phase is *for*: switch at once.
    pp.capacity_serializes = true;
    pp.seed = params.rng_seed;
    pp.seed_stride = 0xABCD;
    policy_ = MakeExpBackoffPolicy(pp);
  }
  phase_ = machine.arena().New<PhaseState>();
  TinyStmParams stm_params;
  stm_params.orec_count_log2 = params.stm_orec_count_log2;
  stm_params.max_read_set = params.stm_max_read_set;
  stm_params.max_write_set = params.stm_max_write_set;
  stm_params.rng_seed = params.rng_seed ^ 0xF00D;
  stm_ = std::make_unique<TinyStm>(machine, stm_params);
  const uint32_t n = machine.scheduler().num_cores();
  for (uint32_t i = 0; i < n; ++i) {
    auto pt = std::make_unique<PerThread>(&machine.arena());
    pt->alloc.Refill(1);
    threads_.push_back(std::move(pt));
  }
  machine.mem().PretouchPages(reinterpret_cast<uint64_t>(phase_), sizeof(PhaseState));
}

PhasedTm::~PhasedTm() = default;

std::string PhasedTm::name() const {
  return "PhasedTM (" + machine_.params().variant.Name() + " / TinySTM)";
}

Task<void> PhasedTm::HwAttempt(SimThread& t, PerThread& pt, const BodyFn& body) {
  Core& core = t.core();
  pt.alloc.OnAttemptStart();
  {
    CategoryGuard g(core, CycleCategory::kTxStartCommit);
    core.WorkInstructions(params_.begin_instructions);
    co_await t.Access(AccessKind::kSpeculate, uint64_t{0}, 1);
    // Monitor the phase word: the switch to software aborts us instantly.
    co_await t.Access(AccessKind::kTxLoad, &phase_->phase, 8);
    if (phase_->phase != kHardware) {
      co_await machine_.AbortRegion(t, AbortCause::kRestartSerial);
    }
  }
  {
    CategoryGuard g(core, CycleCategory::kTxAppCode);
    PhasedHwTx tx(*this, t, pt);
    co_await body(tx);
  }
  {
    CategoryGuard g(core, CycleCategory::kTxStartCommit);
    core.WorkInstructions(params_.commit_instructions);
    asf::AsfContext& ctx = machine_.context(t.id());
    pt.last_read_lines = ctx.read_set_lines();
    pt.last_write_lines = ctx.write_set_lines();
    co_await t.Access(AccessKind::kCommit, uint64_t{0}, 1);
  }
}

Task<void> PhasedTm::Backoff(SimThread& t, PerThread& pt, uint64_t wait, uint32_t retry) {
  pt.stats.backoff_cycles += wait;
  EmitTxEvent(machine_, t, TxEventKind::kBackoffStart, TxMode::kHardware, AbortCause::kNone, 0,
              retry);
  co_await t.Sleep(wait);
  EmitTxEvent(machine_, t, TxEventKind::kBackoffEnd, TxMode::kHardware, AbortCause::kNone, 0,
              retry, wait);
}

// Flips the whole system into the software phase. The store aborts every
// in-flight hardware transaction monitoring the phase word.
Task<void> PhasedTm::SwitchToSoftware(SimThread& t, uint32_t aborted_attempts) {
  co_await t.Store(AccessKind::kStore, &phase_->software_budget, 8, params_.software_quota);
  co_await t.Store(AccessKind::kStore, &phase_->phase, 8, kSoftware);
  ++to_software_;
  EmitTxEvent(machine_, t, TxEventKind::kFallbackTransition, TxMode::kStm, AbortCause::kNone, 0,
              aborted_attempts, static_cast<uint64_t>(TxMode::kHardware));
}

Task<void> PhasedTm::Atomic(SimThread& t, uint32_t site, BodyFn body) {
  PerThread& pt = *threads_[t.id()];
  Core& core = t.core();
  ++pt.stats.tx_started;
  policy_->OnBlockStart(t.id(), site);
  uint32_t aborted_attempts = 0;  // Lifecycle retry ordinal for this block.
  for (;;) {
    co_await t.Access(AccessKind::kLoad, &phase_->phase, 8);
    if (phase_->phase == kHardware) {
      // ---- Hardware phase ----
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
                    core.attempt_seq(), aborted_attempts, pt.last_read_lines,
                    pt.last_write_lines);
        co_return;
      }
      core.AbortAttemptAccounting();
      ++pt.stats.aborts[static_cast<size_t>(cause)];
      pt.alloc.OnAbort();
      EmitTxEvent(machine_, t, TxEventKind::kTxAbort, TxMode::kHardware, cause,
                  core.attempt_seq(), aborted_attempts);
      ++aborted_attempts;
      switch (cause) {
        case AbortCause::kRestartSerial:
          continue;  // Phase flipped under us; re-dispatch.
        case AbortCause::kUserAbort:
          co_return;
        case AbortCause::kMallocRefill: {
          co_await t.Access(AccessKind::kSyscall, uint64_t{0}, 1);
          pt.alloc.Refill(pt.refill_bytes);
          continue;
        }
        default: {
          // The PhTM move: a kSerialize decision (capacity, or a spent
          // contention budget) flips the whole system into the software
          // phase instead of serializing, so capacity-challenged
          // transactions retain concurrency among themselves.
          PolicyDecision d = policy_->OnAbort(t.id(), cause, site);
          if (d.action == PolicyAction::kSerialize) {
            co_await SwitchToSoftware(t, aborted_attempts);
          } else if (d.action == PolicyAction::kBackoffRetry) {
            co_await Backoff(t, pt, d.backoff_cycles, aborted_attempts);
          }
          continue;
        }
      }
    }

    if (phase_->phase == kDraining) {
      // A switch back to hardware is in progress; wait it out.
      co_await t.Sleep(128);
      continue;
    }

    // ---- Software phase ----
    co_await t.FetchAdd(&phase_->active_software, 8, 1);
    co_await t.Access(AccessKind::kLoad, &phase_->phase, 8);
    if (phase_->phase != kSoftware) {
      // The phase flipped before we started; deregister and retry.
      co_await t.FetchAdd(&phase_->active_software, 8, static_cast<uint64_t>(-1));
      continue;
    }
    co_await stm_->Atomic(t, site, std::move(body));
    ++pt.stats.stm_commits;
    uint64_t budget_before = co_await t.FetchAdd(&phase_->software_budget, 8,
                                                 static_cast<uint64_t>(-1));
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
    co_return;
  }
}

TxStats PhasedTm::TotalStats() const {
  TxStats total;
  for (const auto& pt : threads_) {
    total.Add(pt->stats);
  }
  // Fold in the STM-side abort/attempt counters (commits are already
  // counted as stm_commits above; avoid double counting them).
  TxStats stm = stm_->TotalStats();
  total.stm_attempts += stm.stm_attempts;
  total.backoff_cycles += stm.backoff_cycles;
  for (size_t i = 0; i < total.aborts.size(); ++i) {
    total.aborts[i] += stm.aborts[i];
  }
  return total;
}

void PhasedTm::ResetStats() {
  for (auto& pt : threads_) {
    pt->stats = TxStats{};
  }
  stm_->ResetStats();
}

}  // namespace asftm
