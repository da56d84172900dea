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

std::coroutine_handle<> SimThread::SubmitPendingOp(const PendingOp& op) {
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
    return std::noop_coroutine();
  }
  // The thread is at the global minimum cycle; processing now preserves
  // ordering.
  scheduler_->ProcessAccess(*this, op);
  // ProcessAccess scheduled this thread's completion wake. If it parked in
  // the slot (and no abort was marked while processing), it is again the
  // global minimum: transfer control straight back into the thread instead
  // of unwinding through the event loop.
  if (!scheduler_->TryConsumeSlot(*this)) {
    return std::noop_coroutine();
  }
  std::coroutine_handle<> h = resume_point_;
  resume_point_ = nullptr;
  return h;
}

std::coroutine_handle<> SimThread::AccessAwaiter::await_suspend(
    std::coroutine_handle<> h) noexcept {
  t.resume_point_ = h;
  PendingOp op;
  op.kind = kind;
  op.addr = addr;
  op.size = size;
  op.data = has_value ? PendingOp::Data::kStore : PendingOp::Data::kNone;
  op.value = value;
  return t.SubmitPendingOp(op);
}

std::coroutine_handle<> SimThread::LoadAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  t.resume_point_ = h;
  PendingOp op;
  op.kind = kind;
  op.addr = addr;
  op.size = size;
  op.data = PendingOp::Data::kLoadCapture;
  return t.SubmitPendingOp(op);
}

std::coroutine_handle<> SimThread::RmwAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  t.resume_point_ = h;
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
    : wake_fast_path_(g_wake_fast_path.load(std::memory_order_relaxed)) {
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
  SchedEvent ev{cycle, next_seq_++, &t, yield};
  if (!wake_fast_path_) {
    events_.push(ev);
    return;
  }
  // Next-event slot: in the common case the thread the loop just woke
  // re-schedules itself ahead of everything queued (it was the global
  // minimum, and its next wake is current cycle + latency while other
  // threads' events lie further out). Parking that event in a one-slot
  // buffer instead of the heap removes a push+pop per access. A new event
  // that beats every queued one strictly precedes them in (cycle, seq) —
  // ties lose to queued events because their seq is smaller — so consuming
  // the slot first in Run() preserves the exact reference order.
  if (!has_next_) {
    if (events_.empty() || EventBefore(ev, events_.top())) {
      next_ = ev;
      has_next_ = true;
      ++fast_wakes_;
    } else {
      events_.push(ev);
    }
    return;
  }
  if (EventBefore(ev, next_)) {
    // The newcomer beats the parked event; demote the old occupant. The slot
    // invariant (next_ precedes events_.top()) holds: ev < next_ <= old top.
    events_.push(next_);
    next_ = ev;
    ++fast_wakes_;
  } else {
    events_.push(ev);
  }
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
  while (has_next_ || !events_.empty()) {
    inline_chain_ = 0;  // Control is back in the loop; the host stack is flat.
    SchedEvent ev;
    if (has_next_) {
      // Slot invariant: the parked event precedes everything in the heap.
      ev = next_;
      has_next_ = false;
    } else if (chooser_ == nullptr) {
      ev = events_.top();
      events_.pop();
    } else {
      // Chooser mode: drain the heap (pop order is already (cycle, seq)-
      // sorted) into the pending set, let the chooser pick, re-queue the
      // rest. Re-pushed events keep their original seq, so later drains
      // re-sort them into the exact same reference order.
      eligible_.clear();
      while (!events_.empty()) {
        if (!events_.top().thread->finished_) {
          eligible_.push_back(events_.top());
        }
        events_.pop();
      }
      if (eligible_.empty()) {
        break;
      }
      const size_t pick = eligible_.size() > 1 ? chooser_->Choose(eligible_) : 0;
      ASF_CHECK_MSG(pick < eligible_.size(), "chooser picked an out-of-range event");
      ev = eligible_[pick];
      for (size_t i = 0; i < eligible_.size(); ++i) {
        if (i != pick) {
          events_.push(eligible_[i]);
        }
      }
    }
    SimThread& t = *ev.thread;
    if (t.finished_) {
      continue;
    }
    OnWake(t, ev.cycle);
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
    return;
  }
  ResumeThread(t);
}

void Scheduler::ProcessAccess(SimThread& t, const SimThread::PendingOp& op) {
  Core& core = *t.core_;
  // Timer interrupt delivery is checked at access boundaries (the paper's
  // regions abort on any interrupt; OS tick cost is charged either way).
  if (core.CheckTimer(core.clock())) {
    core.AdvanceTo(core.clock() + core.params().timer_cost);
    if (handler_->OnInterrupt(t)) {
      t.MarkAbort(AbortCause::kInterrupt);
      ScheduleWake(t, core.clock());
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
  ScheduleWake(t, core.clock());
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
