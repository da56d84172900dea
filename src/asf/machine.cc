// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/asf/machine.h"

#include <atomic>
#include <bit>

#include "src/fault/fault_injector.h"

namespace asf {

using asfcommon::AbortCause;
using asfcommon::LineOf;
using asfsim::AccessKind;
using asfsim::AccessOutcome;
using asfsim::SimThread;

namespace {

std::atomic<bool> g_speculator_gate_disabled{false};

}  // namespace

bool SpeculatorGateDisabled() {
  return g_speculator_gate_disabled.load(std::memory_order_relaxed);
}

void SetSpeculatorGateDisabled(bool disabled) {
  g_speculator_gate_disabled.store(disabled, std::memory_order_relaxed);
}

Machine::Machine(const MachineParams& params)
    : params_(params),
      arena_(params.arena_bytes),
      scheduler_(params.num_cores, params.core),
      mem_(params.num_cores, params.mem),
      directory_(params.num_cores, !SpeculatorGateDisabled()),
      staged_abort_(params.num_cores, AbortCause::kNone) {
  for (uint32_t i = 0; i < params.num_cores; ++i) {
    contexts_.push_back(std::make_unique<AsfContext>(i, params.variant));
    contexts_.back()->BindDirectory(&directory_);
  }
  scheduler_.SetAccessHandler(this);
  mem_.SetListener(this);
}

Machine::~Machine() = default;

uint64_t Machine::AbortVictim(uint32_t core, AbortCause cause) {
  AsfContext& victim = *contexts_[core];
  const bool had_writes = victim.write_set_lines() > 0;
  victim.Abort(cause);
  scheduler_.thread(core).MarkAbort(cause);
  // The victim's LLB writes its backups back before the probe is answered;
  // the requester stalls for that write-back (paper Sec. 2.3).
  return had_writes ? params_.costs.abort_writeback : 0;
}

AccessOutcome Machine::OnAccess(SimThread& thread, AccessKind kind, uint64_t addr,
                                uint32_t size) {
  const uint32_t cid = thread.id();
  AsfContext& ctx = *contexts_[cid];
  const AsfCosts& costs = params_.costs;

  // 0. Fault injection (src/fault): the scheduled adverse event, if any,
  //    strikes before the access's own semantics — a timer interrupt or
  //    conflicting probe does not wait for the victim's instruction to
  //    retire. kAbortOp is exempt: that region is already dying.
  uint64_t injected_latency = 0;
  if (fault_injector_ != nullptr && kind != AccessKind::kAbortOp) {
    asffault::InjectionOutcome inj = fault_injector_->OnAccess(cid, kind, ctx.active());
    injected_latency = inj.extra_latency;
    if (inj.cause != AbortCause::kNone) {
      if (tx_sink_ != nullptr) {
        asfobs::TxEvent ev;
        ev.cycle = thread.core().clock();
        ev.core = cid;
        ev.kind = asfobs::TxEventKind::kFaultInjected;
        ev.cause = inj.cause;
        ev.attempt = thread.core().attempt_seq();
        ev.arg0 = inj.abort ? 1 : 0;
        ev.arg1 = inj.extra_latency;
        tx_sink_->OnTxEvent(ev);
      }
      if (inj.abort) {
        ctx.Abort(inj.cause);
        thread.MarkAbort(inj.cause);
        return {injected_latency + costs.abort_op, true};
      }
    }
  }

  switch (kind) {
    case AccessKind::kSpeculate: {
      if (!ctx.Speculate()) {
        ctx.Abort(AbortCause::kDisallowed);
        thread.MarkAbort(AbortCause::kDisallowed);
        return {costs.speculate, true};
      }
      return {costs.speculate, false};
    }
    case AccessKind::kCommit: {
      ctx.CommitTop();
      return {costs.commit, false};
    }
    case AccessKind::kAbortOp: {
      AbortCause cause = staged_abort_[cid];
      ASF_CHECK_MSG(cause != AbortCause::kNone, "ABORT without a staged cause");
      staged_abort_[cid] = AbortCause::kNone;
      ctx.Abort(cause);
      thread.MarkAbort(cause);
      return {costs.abort_op, true};
    }
    case AccessKind::kSyscall: {
      if (ctx.active()) {
        ctx.Abort(AbortCause::kSyscall);
        thread.MarkAbort(AbortCause::kSyscall);
        return {costs.syscall, true};
      }
      return {costs.syscall, false};
    }
    case AccessKind::kRelease: {
      const uint64_t first = LineOf(addr);
      const uint64_t last = LineOf(addr + size - 1);
      for (uint64_t line = first; line <= last; ++line) {
        ctx.Release(line);
      }
      return {costs.release, false};
    }
    default:
      break;
  }

  // ---- Memory accesses (kLoad/kStore/kTxLoad/kTxStore/kWatchR/kWatchW) ----
  const bool is_tx = asfsim::IsTransactional(kind);
  ASF_CHECK_MSG(!is_tx || ctx.active(), "LOCK MOV/WATCH outside a speculative region");
  const bool write_like =
      kind == AccessKind::kStore || kind == AccessKind::kTxStore || kind == AccessKind::kWatchW;

  // 1. Requester-wins conflict resolution via the speculative-line
  //    directory: one probe per touched line (skipped entirely when no other
  //    core is speculating). Victims roll back architecturally *now* (before
  //    this access proceeds, in ascending core order like the historical
  //    all-contexts sweep), so the requester observes pre-speculative data.
  const uint64_t first = LineOf(addr);
  const uint64_t last = LineOf(addr + size - 1);
  uint64_t extra = injected_latency;  // Latency-only injections (no region).
  // Mutation hook (litmus suite): a plain load skips conflict resolution,
  // so it can observe a remote region's uncommitted store. See
  // MachineParams::break_requester_wins_for_testing.
  const bool skip_resolution =
      params_.break_requester_wins_for_testing && kind == AccessKind::kLoad;
  uint64_t victims = skip_resolution ? 0 : directory_.Resolve(first, last, write_like, cid);
  // Abort-causality edges for the observability layer: one per (contended
  // line, victim), read from directory state *before* the victims roll back
  // (teardown erases their line records). Derived from the records rather
  // than Resolve's internal path so the attribution is identical whichever
  // fast path the directory took. Host-side only — zero simulated cost.
  if (victims != 0 && tx_sink_ != nullptr) {
    for (uint64_t line = first; line <= last; ++line) {
      const ConflictDirectory::LineRecord* r = directory_.Find(line);
      if (r == nullptr) {
        continue;
      }
      uint64_t hit = write_like ? r->PresentBits()
                                : (r->writer == ConflictDirectory::kNoWriter
                                       ? 0
                                       : uint64_t{1} << r->writer);
      hit &= victims;
      while (hit != 0) {
        const uint32_t v = static_cast<uint32_t>(std::countr_zero(hit));
        hit &= hit - 1;
        asfobs::TxEvent ev;
        ev.cycle = thread.core().clock();
        ev.core = v;
        ev.kind = asfobs::TxEventKind::kConflictEdge;
        ev.mode = asfobs::TxMode::kHardware;
        ev.cause = AbortCause::kContention;
        ev.attempt = scheduler_.thread(v).core().attempt_seq();
        ev.arg0 = ObsLine(line);
        ev.arg1 = asfobs::PackConflictEdge(cid, r->writer == v, write_like);
        tx_sink_->OnTxEvent(ev);
      }
    }
  }
  while (victims != 0) {
    const uint32_t o = static_cast<uint32_t>(std::countr_zero(victims));
    victims &= victims - 1;
    ASF_CHECK(contexts_[o]->active());
    extra += AbortVictim(o, AbortCause::kContention);
  }

  // 2. Unannotated store to a speculatively written line of this core's own
  //    region: disallowed (raises an exception -> abort). Unannotated stores
  //    to lines in the read set are hoisted into the write set below.
  if (kind == AccessKind::kStore && ctx.active()) {
    for (uint64_t line = first; line <= last; ++line) {
      if (ctx.HasWrite(line)) {
        ctx.Abort(AbortCause::kDisallowed);
        thread.MarkAbort(AbortCause::kDisallowed);
        return {costs.abort_op, true};
      }
    }
  }

  // 3. Timing (caches, TLB, page faults). L1 displacements observed here can
  //    capacity-abort regions of the w/-L1 variants, including our own.
  asfmem::MemResult mr = mem_.Access(cid, addr, size, write_like);
  uint64_t latency = mr.latency + extra;
  if (is_tx) {
    latency += (kind == AccessKind::kWatchR || kind == AccessKind::kWatchW) ? costs.watch_extra
                                                                            : costs.lock_mov_extra;
  }

  // 4. A page fault inside a speculative region aborts it (OS intervention);
  //    the page is serviced, so the retry proceeds.
  if (mr.page_fault && ctx.active()) {
    ctx.Abort(AbortCause::kPageFault);
    thread.MarkAbort(AbortCause::kPageFault);
    return {latency, true};
  }

  // 5. The fill path may have displaced one of our own tracked read lines
  //    (w/-L1 variants): OnL1LineDropped marked us; report the abort.
  if (thread.abort_marked()) {
    return {latency, true};
  }

  // 6. Protected-set bookkeeping for this core's own region.
  if (ctx.active()) {
    bool ok = true;
    for (uint64_t line = first; line <= last && ok; ++line) {
      switch (kind) {
        case AccessKind::kTxLoad:
        case AccessKind::kWatchR:
          ok = ctx.AddRead(line);
          break;
        case AccessKind::kTxStore:
        case AccessKind::kWatchW:
          ok = ctx.AddWrite(line);
          break;
        case AccessKind::kStore:
          // Colocation hoisting: an unprotected store to a line we monitor
          // for reading is promoted into the transactional write set.
          if (ctx.HasRead(line)) {
            ok = ctx.AddWrite(line);
          }
          break;
        default:
          break;
      }
    }
    if (!ok) {
      ctx.Abort(AbortCause::kCapacity);
      thread.MarkAbort(AbortCause::kCapacity);
      return {latency, true};
    }
  }
  return {latency, false};
}

bool Machine::OnInterrupt(SimThread& thread) {
  AsfContext& ctx = *contexts_[thread.id()];
  if (!ctx.active()) {
    return false;
  }
  ctx.Abort(AbortCause::kInterrupt);
  return true;
}

void Machine::OnL1LineDropped(uint32_t core, uint64_t line) {
  AsfContext& ctx = *contexts_[core];
  if (ctx.OnL1Drop(line)) {
    // Read-set tracking lost through displacement: the region cannot detect
    // conflicts on `line` any more and must abort (counted as capacity, as
    // in the paper's abort-reason analysis).
    AbortVictim(core, AbortCause::kCapacity);
  }
}

}  // namespace asf
