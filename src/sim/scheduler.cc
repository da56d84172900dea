// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/sim/scheduler.h"

#include <algorithm>
#include <cstring>

namespace asfsim {

using asfcommon::AbortCause;

// --- AbortScope -----------------------------------------------------------

std::coroutine_handle<> AbortScope::await_suspend(std::coroutine_handle<> awaiter) noexcept {
  ASF_CHECK_MSG(thread_.scope_ == nullptr, "nested AbortScope (ASF nesting is flat)");
  ASF_CHECK(body_.Valid());
  awaiter_ = awaiter;
  thread_.scope_ = this;
  body_.SetContinuation(awaiter);
  // Symmetric transfer into the attempt body.
  return body_.handle();
}

AbortCause AbortScope::await_resume() noexcept {
  // Reached either directly from the body's final suspend (normal
  // completion; the scope is still registered) or from DoControlAbort
  // (which already deregistered the scope and set result_).
  if (thread_.scope_ == this) {
    thread_.scope_ = nullptr;
  }
  return result_;
}

// --- SimThread ------------------------------------------------------------

void SimThread::MarkAbort(AbortCause cause) {
  ASF_CHECK_MSG(scope_ != nullptr, "abort marked on a thread without an abortable scope");
  ASF_CHECK_MSG(phase_ != Phase::kBlocked, "abort marked on a blocked thread");
  if (abort_requested_) {
    return;  // First cause wins; a single wake-up handles it.
  }
  abort_requested_ = true;
  abort_cause_ = cause;
}

bool SimThread::SubmitPendingOp(const PendingOp& op) {
  // TakePendingWork advances the clock by the accumulated ALU work (charging
  // each batch to its recording category); the access is then processed at
  // its true issue cycle, in global order.
  //
  // Flush merge: when a flush wake at the post-work clock would be the
  // global minimum, no other thread's event lies between the pre-work and
  // post-work clock, so the access is processed right now — exactly what
  // OnWake would do one loop iteration later — and the wake is never
  // scheduled. Only the flush wakes that cannot run now take a sequence
  // number and a trip through the event loop.
  if (core_->TakePendingWork() > 0 && !scheduler_->LeadsAt(*this, core_->clock())) {
    phase_ = Phase::kFlushWork;
    pending_ = op;
    scheduler_->ScheduleWake(*this, core_->clock());
    return false;
  }
  // The thread is at the global minimum cycle; processing now preserves
  // ordering.
  scheduler_->ProcessAccess(*this, op);
  return scheduler_->CompleteAccess(*this);
}

bool SimThread::AccessAwaiter::await_ready() noexcept {
  PendingOp op;
  op.kind = kind;
  op.addr = addr;
  op.size = size;
  op.data = has_value ? PendingOp::Data::kStore : PendingOp::Data::kNone;
  op.value = value;
  return t.SubmitPendingOp(op);
}

bool SimThread::LoadAwaiter::await_ready() noexcept {
  PendingOp op;
  op.kind = kind;
  op.addr = addr;
  op.size = size;
  op.data = PendingOp::Data::kLoadCapture;
  return t.SubmitPendingOp(op);
}

bool SimThread::RmwAwaiter::await_ready() noexcept {
  PendingOp op;
  op.kind = AccessKind::kStore;
  op.addr = addr;
  op.size = size;
  op.data = is_cas ? PendingOp::Data::kCas : PendingOp::Data::kFaa;
  op.value = operand;
  op.expected = expected;
  return t.SubmitPendingOp(op);
}

void SimThread::SleepAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  t.resume_point_ = h;
  t.phase_ = Phase::kIdle;
  t.core_->TakePendingWork();
  t.scheduler_->ScheduleWake(t, t.core_->clock() + cycles, /*yield=*/true);
}

void SimThread::SelfAbortAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  t.resume_point_ = h;  // Never resumed; the scope unwind destroys this frame.
  t.phase_ = Phase::kIdle;
  t.MarkAbort(cause);
  t.core_->TakePendingWork();
  t.scheduler_->ScheduleWake(t, t.core_->clock());
}

// --- Scheduler --------------------------------------------------------------

namespace {
// Test-only global (read once per Scheduler construction, so the hot path
// stays a plain bool). Default on.
std::atomic<bool> g_wake_fast_path{true};

uint64_t ReadHost(uint64_t addr, uint32_t size) {
  uint64_t v = 0;
  std::memcpy(&v, reinterpret_cast<const void*>(addr), size);
  return v;
}
}  // namespace

void Scheduler::SetWakeFastPathForTesting(bool enabled) {
  g_wake_fast_path.store(enabled, std::memory_order_relaxed);
}

void Scheduler::SetChooser(ScheduleChooser* chooser) {
  ASF_CHECK_MSG(threads_.empty(), "SetChooser must run before any thread is spawned");
  chooser_ = chooser;
  if (chooser != nullptr) {
    // Fast paths short-circuit wakes past the event loop; in chooser mode
    // every wake must surface in the pending set the chooser sees.
    wake_fast_path_ = false;
  }
}

Scheduler::Scheduler(uint32_t num_cores, const CoreParams& params)
    : pending_(num_cores, kEmptySlot),
      wake_fast_path_(g_wake_fast_path.load(std::memory_order_relaxed)) {
  cores_.reserve(num_cores);
  for (uint32_t i = 0; i < num_cores; ++i) {
    cores_.push_back(std::make_unique<Core>(i, params));
  }
}

Scheduler::~Scheduler() = default;

void Scheduler::SetTracer(Tracer* tracer) {
  tracer_ = tracer;
  for (auto& core : cores_) {
    core->SetSpanSink(tracer);
  }
}

SimThread& Scheduler::Spawn(Task<void> root) {
  ASF_CHECK_MSG(threads_.size() < cores_.size(), "more threads than cores");
  ASF_CHECK(!running_);
  auto t = std::make_unique<SimThread>();
  t->scheduler_ = this;
  t->core_ = cores_[threads_.size()].get();
  t->root_ = std::move(root);
  t->resume_point_ = t->root_.handle();
  t->phase_ = SimThread::Phase::kIdle;
  threads_.push_back(std::move(t));
  SimThread& ref = *threads_.back();
  ScheduleWake(ref, 0);
  return ref;
}

void Scheduler::ScheduleWake(SimThread& t, uint64_t cycle, bool yield) {
  SchedEvent& slot = pending_[t.id()];
  ASF_CHECK_MSG(slot.thread == nullptr, "a thread has at most one pending event");
  slot = SchedEvent{cycle, next_seq_++, &t, yield};
  // The new event has the largest seq, so it is the earliest iff its cycle
  // precedes the current earliest's.
  if (earliest_ == kNoEvent || cycle < pending_[earliest_].cycle) {
    earliest_ = t.id();
    ++fast_wakes_;
  }
}

SchedEvent Scheduler::Take(uint32_t i) {
  const SchedEvent ev = pending_[i];
  pending_[i] = kEmptySlot;
  if (i == earliest_) {
    // Branch-free minimum: (cycle, seq) as one 128-bit key compiles to a
    // compare and conditional moves. The earliest event is a different core
    // from one dispatch to the next, so a branch on each comparison would
    // mispredict about as often as not. Empty slots hold the largest key.
    using Key = unsigned __int128;
    uint32_t best = kNoEvent;
    Key best_key = ~Key{0};
    for (uint32_t j = 0; j < pending_.size(); ++j) {
      const Key key = (Key{pending_[j].cycle} << 64) | pending_[j].seq;
      const bool before = key < best_key;
      best = before ? j : best;
      best_key = before ? key : best_key;
    }
    earliest_ = best;
  }
  return ev;
}

bool Scheduler::CompleteAccess(SimThread& t) {
  const uint64_t cycle = t.core_->clock();
  if (inline_chain_ < kMaxInlineChain && LeadsAt(t, cycle)) {
    ++inline_chain_;
    ++inline_wakes_;
    return true;
  }
  ScheduleWake(t, cycle);
  return false;
}

void Scheduler::Run() {
  ASF_CHECK_MSG(handler_ != nullptr || threads_.empty(), "no access handler installed");
  // Host-thread ownership guard: a scheduler (and the Machine built on it)
  // is single-host-threaded by design. The atomic exchange makes concurrent
  // entry fail deterministically — and visibly under TSan — instead of
  // corrupting simulation state (see src/harness/sweep.h for the fan-out
  // model that relies on this).
  ASF_CHECK_MSG(!host_busy_.exchange(true, std::memory_order_acquire),
                "Scheduler::Run entered from two host threads");
  running_ = true;
  while (earliest_ != kNoEvent) {
    inline_chain_ = 0;  // Control is back in the loop; the host stack is flat.
    uint32_t slot = earliest_;
    if (chooser_ != nullptr) {
      // Chooser mode: hand the chooser the whole pending set, sorted by
      // (cycle, seq); the events it does not pick stay in their slots.
      eligible_.clear();
      for (const SchedEvent& e : pending_) {
        if (e.thread != nullptr) {
          eligible_.push_back(e);
        }
      }
      std::sort(eligible_.begin(), eligible_.end(), EventBefore);
      const size_t pick = eligible_.size() > 1 ? chooser_->Choose(eligible_) : 0;
      ASF_CHECK_MSG(pick < eligible_.size(), "chooser picked an out-of-range event");
      slot = eligible_[pick].thread->id();
    }
    const SchedEvent ev = Take(slot);
    OnWake(*ev.thread, ev.cycle);
  }
  running_ = false;
  host_busy_.store(false, std::memory_order_release);
  ASF_CHECK_MSG(finished_count_ == threads_.size(),
                "simulation stalled: threads blocked with no pending events (deadlock)");
}

uint64_t Scheduler::MaxCycle() const {
  uint64_t max_cycle = 0;
  for (const auto& c : cores_) {
    max_cycle = std::max(max_cycle, c->clock());
  }
  return max_cycle;
}

void Scheduler::OnWake(SimThread& t, uint64_t cycle) {
  t.core_->AdvanceTo(cycle);
  if (t.abort_requested_) {
    // Instantaneous-abort semantics: a pending access of a doomed region is
    // never performed; unwind immediately.
    DoControlAbort(t);
    return;
  }
  if (t.phase_ == SimThread::Phase::kFlushWork) {
    t.phase_ = SimThread::Phase::kIdle;
    ProcessAccess(t, t.pending_);
    // A completion that leads resumes the thread now, as the loop's next
    // iteration would.
    if (!CompleteAccess(t)) {
      return;
    }
  }
  ResumeThread(t);
}

void Scheduler::ProcessAccess(SimThread& t, const SimThread::PendingOp& op) {
  ++accesses_;
  Core& core = *t.core_;
  // Timer interrupt delivery is checked at access boundaries (the paper's
  // regions abort on any interrupt; OS tick cost is charged either way).
  if (core.CheckTimer(core.clock())) {
    core.AdvanceTo(core.clock() + core.params().timer_cost);
    if (handler_->OnInterrupt(t)) {
      t.MarkAbort(AbortCause::kInterrupt);
      return;
    }
  }
  const uint64_t issue_cycle = core.clock();
  AccessOutcome outcome = handler_->OnAccess(t, op.kind, op.addr, op.size);
  uint64_t latency = outcome.latency;
  if (op.data == SimThread::PendingOp::Data::kCas || op.data == SimThread::PendingOp::Data::kFaa) {
    latency += core.params().rmw_extra_cycles;
  }
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEvent{issue_cycle, op.addr, core.id(), op.size, op.kind,
                               core.category(), latency});
  }
  core.AdvanceTo(core.clock() + latency);
  if (outcome.self_abort) {
    ASF_CHECK_MSG(t.abort_requested_, "handler reported self-abort without marking the thread");
  } else {
    // Data-carrying operations apply atomically with the access's coherence
    // effects (the machine has already versioned the line if speculative).
    using Data = SimThread::PendingOp::Data;
    switch (op.data) {
      case Data::kNone:
        break;
      case Data::kStore:
        std::memcpy(reinterpret_cast<void*>(op.addr), &op.value, op.size);
        break;
      case Data::kLoadCapture:
        // Bind the loaded value now — after conflict resolution rolled back
        // any victim region — so a later speculative store cannot leak into
        // this load's result (see SimThread::Load).
        t.load_result_ = ReadHost(op.addr, op.size);
        break;
      case Data::kCas: {
        uint64_t cur = ReadHost(op.addr, op.size);
        if (cur == op.expected) {
          std::memcpy(reinterpret_cast<void*>(op.addr), &op.value, op.size);
          t.rmw_result_ = 1;
        } else {
          t.rmw_result_ = 0;
        }
        break;
      }
      case Data::kFaa: {
        uint64_t cur = ReadHost(op.addr, op.size);
        uint64_t next = cur + op.value;
        std::memcpy(reinterpret_cast<void*>(op.addr), &next, op.size);
        t.rmw_result_ = cur;
        break;
      }
    }
  }
}

void Scheduler::DoControlAbort(SimThread& t) {
  AbortScope* scope = t.scope_;
  ASF_CHECK(scope != nullptr);
  t.scope_ = nullptr;
  t.abort_requested_ = false;
  scope->result_ = t.abort_cause_;
  t.abort_cause_ = AbortCause::kNone;
  // Destroy the attempt's coroutine tree (rollback of control flow); then
  // resume the retry loop, which observes the abort cause.
  scope->body_.Destroy();
  t.resume_point_ = scope->awaiter_;
  t.phase_ = SimThread::Phase::kIdle;
  ResumeThread(t);
}

void Scheduler::ResumeThread(SimThread& t) {
  std::coroutine_handle<> h = t.resume_point_;
  ASF_CHECK(h && !h.done());
  t.resume_point_ = nullptr;
  h.resume();
  if (t.root_.Done() && !t.finished_) {
    t.finished_ = true;
    ++finished_count_;
  }
}

}  // namespace asfsim
