// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Deterministic execution-driven scheduler for simulated multicore runs.
//
// Simulated threads are coroutines (see task.h) bound 1:1 to Cores. A
// thread has at most one pending event, so the pending set is a table of
// one slot per core plus the index of the earliest slot. The scheduler
// always wakes the thread with the smallest pending cycle (ties broken by
// schedule order), so memory events are processed in global cycle order and
// the whole simulation is single-host-threaded and bit-for-bit reproducible.
//
// An access is processed when it is issued if its issue cycle leads every
// pending event. Its completion wake is scheduled only if another thread's
// event lies inside its latency; otherwise the access completes in place and
// the issuing coroutine never suspends.
//
// Plain computation is charged lazily (Core::WorkInstructions) and flushed
// before the next access is processed, by an extra suspension whenever
// another thread's event lies inside the flushed cycles. That keeps the
// global ordering exact: an access issued at cycle t is processed after
// every event scheduled before t.
//
// Transaction aborts are modeled in two halves, mirroring ASF (paper
// Sec. 2.2): the *architectural* rollback (LLB write-back, protected-set
// clear) is performed synchronously by the machine model at conflict time,
// so remote requesters observe pre-speculation data; the *control-flow*
// rollback (resume at the instruction after SPECULATE) happens when the
// victim thread is next scheduled: the scheduler destroys the suspended
// coroutine tree of the current AbortScope and resumes the scope's awaiter
// with the abort cause.
#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/abort_cause.h"
#include "src/common/defs.h"
#include "src/sim/core.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"

namespace asfsim {

class Scheduler;
class SimThread;

// One pending wake-up. `seq` is the global schedule order and breaks cycle
// ties, so (cycle, seq) is a strict total order over all events ever queued.
struct SchedEvent {
  uint64_t cycle = 0;
  uint64_t seq = 0;
  SimThread* thread = nullptr;
  // The thread queued this wake by explicitly sleeping (backoff, polling
  // wait) rather than by completing an access. Interleaving choosers treat
  // a sleeping thread as having yielded the processor: the reference
  // schedule hands off instead of spinning it (see litmus::DfsChooser).
  bool yield = false;
};

constexpr bool EventBefore(const SchedEvent& a, const SchedEvent& b) {
  return a.cycle != b.cycle ? a.cycle < b.cycle : a.seq < b.seq;
}

// Interleaving chooser (model checking; see src/litmus). When one is
// installed, every event-loop iteration surfaces the *entire* pending-event
// set — one event per runnable thread, sorted by (cycle, seq) — and asks the
// chooser which event to dispatch next; the others stay in their slots.
// Index 0 is the reference choice (the event the default scheduler would
// take), so a chooser that always returns 0 reproduces the default execution
// exactly. Per-thread program order is preserved for free: a thread has at
// most one pending event, so any dispatch order is a legal interleaving of
// the per-thread sequences, and core clocks stay monotonic (OnWake advances
// only the woken thread's own core).
class ScheduleChooser {
 public:
  virtual ~ScheduleChooser() = default;
  // `eligible` is non-empty and (cycle, seq)-sorted; returns the index of
  // the event to dispatch. Out-of-range picks are a fatal error.
  virtual size_t Choose(const std::vector<SchedEvent>& eligible) = 0;
};

// Abortable scope: awaitable that runs `body` so that the scheduler can
// destroy it mid-flight and resume the awaiter with an abort cause. The TM
// runtimes wrap each transaction attempt in one scope; ASF flat nesting
// means there is never more than one scope per thread.
class AbortScope {
 public:
  AbortScope(SimThread& thread, Task<void> body)
      : thread_(thread), body_(std::move(body)) {}
  AbortScope(const AbortScope&) = delete;
  AbortScope& operator=(const AbortScope&) = delete;

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) noexcept;
  asfcommon::AbortCause await_resume() noexcept;

 private:
  friend class Scheduler;

  SimThread& thread_;
  Task<void> body_;
  std::coroutine_handle<> awaiter_;
  asfcommon::AbortCause result_ = asfcommon::AbortCause::kNone;
};

// One simulated thread of execution, bound to one Core.
class SimThread {
 public:
  enum class Phase : uint8_t {
    kIdle,       // Resume point is a coroutine to resume.
    kFlushWork,  // Pending work is being charged; an access awaits processing.
    kBlocked,    // Parked on a SimMutex/SimBarrier; no pending event.
  };

  Core& core() { return *core_; }
  const Core& core() const { return *core_; }
  Scheduler& scheduler() { return *scheduler_; }
  uint32_t id() const { return core_->id(); }
  bool finished() const { return finished_; }

  // --- Awaitable factories (used from coroutine code) ---------------------

  // One simulated memory operation. The operation's architectural effects
  // (cache fills, coherence probes, ASF set updates, conflict aborts of
  // remote regions) are applied at issue time; the returned awaitable
  // resumes after the access latency has been charged.
  //
  // Loads: the caller reads host memory after resuming. This is safe for
  // protected (tx) loads — any remote write to the line in the meantime
  // aborts this region first — and a bounded approximation for plain loads.
  //
  // Stores issued via Access() are TIMING-ONLY: they charge latency and run
  // coherence/conflict effects but do not mutate host memory. Any store
  // whose target can also be touched by speculative regions must instead use
  // Store() below, which applies the data atomically at issue time (after
  // the machine has versioned the line), so abort-time rollback ordering is
  // exact.
  struct AccessAwaiter {
    SimThread& t;
    uint64_t addr;
    uint32_t size;
    AccessKind kind;
    bool has_value = false;
    uint64_t value = 0;
    // Processes the access; true iff it completed in place, so the caller
    // goes on without suspending. Otherwise its wake is pending, and
    // await_suspend only records where to resume.
    bool await_ready() noexcept;
    void await_suspend(std::coroutine_handle<> h) noexcept { t.resume_point_ = h; }
    void await_resume() const noexcept {}
  };
  AccessAwaiter Access(AccessKind kind, uint64_t addr, uint32_t size) {
    return AccessAwaiter{*this, addr, size, kind};
  }
  AccessAwaiter Access(AccessKind kind, const void* p, uint32_t size) {
    return AccessAwaiter{*this, reinterpret_cast<uint64_t>(p), size, kind};
  }

  // A data-carrying store (size <= 8 bytes, little-endian): host memory is
  // updated at issue time, after conflict resolution and (for kTxStore) the
  // LLB backup — the write is atomic with its coherence effects.
  AccessAwaiter Store(AccessKind kind, uint64_t addr, uint32_t size, uint64_t value) {
    ASF_CHECK(size <= 8);
    return AccessAwaiter{*this, addr, size, kind, true, value};
  }
  AccessAwaiter Store(AccessKind kind, const void* p, uint32_t size, uint64_t value) {
    return Store(kind, reinterpret_cast<uint64_t>(p), size, value);
  }

  // A value-binding load (size <= 8 bytes, little-endian): the value is
  // captured from host memory at issue time, atomically with the access's
  // coherence and conflict-resolution effects, and returned on resume.
  // Plain (unannotated) readers racing speculative regions need this for
  // exact strong-isolation semantics: speculative stores are applied to host
  // memory in place (LLB-backed), so a resume-time read as in Access() opens
  // a window in which a store issued *after* this load's conflict resolution
  // becomes visible to it — the litmus dirty-read test fails on that
  // artifact. Protected (tx) loads may keep the Access() pattern: a remote
  // write to the line aborts this region before the value could change.
  struct LoadAwaiter {
    SimThread& t;
    AccessKind kind;
    uint64_t addr;
    uint32_t size;
    bool await_ready() noexcept;  // As AccessAwaiter.
    void await_suspend(std::coroutine_handle<> h) noexcept { t.resume_point_ = h; }
    uint64_t await_resume() const noexcept { return t.load_result_; }
  };
  LoadAwaiter Load(AccessKind kind, uint64_t addr, uint32_t size) {
    ASF_CHECK(size <= 8);
    return LoadAwaiter{*this, kind, addr, size};
  }
  LoadAwaiter Load(AccessKind kind, const void* p, uint32_t size) {
    return Load(kind, reinterpret_cast<uint64_t>(p), size);
  }

  // Atomic read-modify-write operations (LOCK CMPXCHG / LOCK XADD), applied
  // at issue time like Store(). The awaitable resumes with the RMW result:
  // Cas -> 1 if the exchange happened, 0 otherwise; FetchAdd -> the previous
  // value. Used by the STM (orec acquisition, commit clock) and by lock
  // implementations.
  struct RmwAwaiter {
    SimThread& t;
    uint64_t addr;
    uint32_t size;
    bool is_cas;        // true: CAS(expected, operand); false: fetch-add(operand).
    uint64_t expected;
    uint64_t operand;
    bool await_ready() noexcept;  // As AccessAwaiter.
    void await_suspend(std::coroutine_handle<> h) noexcept { t.resume_point_ = h; }
    uint64_t await_resume() const noexcept { return t.rmw_result_; }
  };
  RmwAwaiter Cas(const void* p, uint32_t size, uint64_t expected, uint64_t desired) {
    ASF_CHECK(size <= 8);
    return RmwAwaiter{*this, reinterpret_cast<uint64_t>(p), size, true, expected, desired};
  }
  RmwAwaiter FetchAdd(const void* p, uint32_t size, uint64_t delta) {
    ASF_CHECK(size <= 8);
    return RmwAwaiter{*this, reinterpret_cast<uint64_t>(p), size, false, 0, delta};
  }

  // Advances simulated time by pending work plus `cycles` (used for backoff
  // and to model fixed-cost instruction sequences around suspension points).
  struct SleepAwaiter {
    SimThread& t;
    uint64_t cycles;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept {}
  };
  SleepAwaiter Sleep(uint64_t cycles) { return SleepAwaiter{*this, cycles}; }

  // Software-initiated abort of the current AbortScope (never resumes the
  // awaiting coroutine; the scope unwinds instead). The caller must have
  // already performed any architectural rollback (e.g. ASF ABORT semantics
  // or STM undo) before awaiting this.
  struct SelfAbortAwaiter {
    SimThread& t;
    asfcommon::AbortCause cause;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept;
    void await_resume() const noexcept {}
  };
  SelfAbortAwaiter AbortSelf(asfcommon::AbortCause cause) { return SelfAbortAwaiter{*this, cause}; }

  // Runs `body` in an abortable scope; resumes with kNone on normal
  // completion or with the abort cause after an abort unwind.
  AbortScope RunAbortable(Task<void> body) { return AbortScope(*this, std::move(body)); }

  bool InAbortableScope() const { return scope_ != nullptr; }

  // Marks this thread's scope for control-flow abort; the unwind happens at
  // the thread's next wake-up. Called by the machine model for requester-
  // wins victims and for self-aborts discovered while processing an access.
  void MarkAbort(asfcommon::AbortCause cause);

  bool abort_marked() const { return abort_requested_; }

 private:
  friend class Scheduler;
  friend class AbortScope;
  friend class SimMutex;
  friend class SimBarrier;

  Scheduler* scheduler_ = nullptr;
  Core* core_ = nullptr;
  Task<void> root_;
  std::coroutine_handle<> resume_point_;
  Phase phase_ = Phase::kIdle;
  bool finished_ = false;
  bool abort_requested_ = false;
  asfcommon::AbortCause abort_cause_ = asfcommon::AbortCause::kNone;
  AbortScope* scope_ = nullptr;
  // One memory operation, as queued while work cycles flush.
  struct PendingOp {
    AccessKind kind = AccessKind::kLoad;
    uint64_t addr = 0;
    uint32_t size = 0;
    enum class Data : uint8_t { kNone, kStore, kCas, kFaa, kLoadCapture } data = Data::kNone;
    uint64_t value = 0;     // Store value / CAS desired / fetch-add delta.
    uint64_t expected = 0;  // CAS expected value.
  };

  // Flushes pending work cycles, then processes `op` at its issue cycle.
  // Returns true iff the access completed in place (see
  // Scheduler::CompleteAccess); otherwise this thread has a pending wake
  // and its awaiter suspends.
  bool SubmitPendingOp(const PendingOp& op);

  PendingOp pending_;
  uint64_t rmw_result_ = 0;
  uint64_t load_result_ = 0;
};

// The scheduler: owns cores and threads, runs the event loop.
class Scheduler {
 public:
  explicit Scheduler(uint32_t num_cores, const CoreParams& params = CoreParams());
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Installs the machine model consulted for every access. Must be set
  // before Run() if any thread performs accesses.
  void SetAccessHandler(AccessHandler* handler) { handler_ = handler; }

  // Optional host-side tracer: records every processed operation and every
  // cycle-span charge at zero simulated cost (the paper's offline-analysis
  // methodology). Also installs the tracer as each core's span sink;
  // SetTracer(nullptr) detaches everywhere.
  void SetTracer(Tracer* tracer);

  // Binds `root` to the next free core and schedules it at cycle 0.
  SimThread& Spawn(Task<void> root);

  // Runs the event loop to completion; checks every spawned thread finished.
  void Run();

  uint32_t num_cores() const { return static_cast<uint32_t>(cores_.size()); }
  Core& core(uint32_t i) { return *cores_[i]; }
  SimThread& thread(uint32_t i) { return *threads_[i]; }
  uint32_t num_threads() const { return static_cast<uint32_t>(threads_.size()); }

  // Maximum cycle reached across all cores (simulated wall-clock).
  uint64_t MaxCycle() const;

  // Schedules thread `t` to wake at `cycle` (used internally and by sync
  // primitives). `t` must have no pending event.
  void ScheduleWake(SimThread& t, uint64_t cycle, bool yield = false);

  // Host-side accounting (perf counters, zero simulated cost): wakes ever
  // scheduled, how many of them were the earliest pending event when
  // scheduled, accesses processed, and how many of those completed in place
  // with no wake. bench/perf_selfcheck reports the shares.
  uint64_t wakes_scheduled() const { return next_seq_; }
  uint64_t fast_wakes() const { return fast_wakes_; }
  uint64_t accesses() const { return accesses_; }
  uint64_t inline_wakes() const { return inline_wakes_; }

  // Test hook: globally disables in-place processing for schedulers
  // constructed afterwards, so every work flush and every access completion
  // takes a wake through the event loop. The determinism tests run both ways
  // and assert identical event orders.
  static void SetWakeFastPathForTesting(bool enabled);

  // Installs an interleaving chooser (model checking; see src/litmus). Must
  // be called before any thread is spawned: chooser mode turns off in-place
  // processing so every wake is visible in the pending set handed to the
  // chooser. Pass nullptr to detach (in-place processing stays off for this
  // scheduler's lifetime).
  void SetChooser(ScheduleChooser* chooser);

 private:
  friend class SimThread;

  static constexpr uint32_t kNoEvent = ~uint32_t{0};
  static constexpr SchedEvent kEmptySlot{~uint64_t{0}, ~uint64_t{0}, nullptr, false};

  void OnWake(SimThread& t, uint64_t cycle);

  // True iff an event of `t` at `cycle` would be dispatched next: it
  // precedes every pending event (ties lose, since a new event's seq is the
  // largest) and no abort is pending. No other thread can then act before
  // `cycle`, so `t` may go on in place. Always false with the fast path off,
  // so a chooser sees every wake.
  bool LeadsAt(const SimThread& t, uint64_t cycle) const {
    return wake_fast_path_ && !t.abort_requested_ &&
           (earliest_ == kNoEvent || cycle < pending_[earliest_].cycle);
  }

  // Ends an access that ProcessAccess has applied: returns true if its
  // completion leads every pending event (the access completed in place);
  // otherwise schedules the completion wake and returns false.
  //
  // The chain cap: a thread that completes accesses in place never returns
  // to Run(), and the symmetric transfers of its Task calls are only
  // guaranteed tail calls under optimization — ASan/-O0 builds grow the host
  // stack with each one. After kMaxInlineChain in-place completions in a row
  // the access takes a wake instead, which unwinds to Run() (which resets the
  // counter).
  bool CompleteAccess(SimThread& t);

  // Empties slot `i` and returns its event, finding the new earliest event
  // if it was the earliest.
  SchedEvent Take(uint32_t i);

  void ProcessAccess(SimThread& t, const SimThread::PendingOp& op);
  void DoControlAbort(SimThread& t);
  void ResumeThread(SimThread& t);

  AccessHandler* handler_ = nullptr;
  Tracer* tracer_ = nullptr;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::unique_ptr<SimThread>> threads_;
  // The pending set: one slot per core (an empty slot is kEmptySlot), and
  // the slot holding the earliest event in (cycle, seq) order.
  std::vector<SchedEvent> pending_;
  uint32_t earliest_ = kNoEvent;
  bool wake_fast_path_;
  uint64_t fast_wakes_ = 0;
  uint64_t accesses_ = 0;
  uint64_t inline_wakes_ = 0;
  static constexpr uint32_t kMaxInlineChain = 32;
  uint32_t inline_chain_ = 0;
  uint64_t next_seq_ = 0;
  uint32_t finished_count_ = 0;
  bool running_ = false;
  // Interleaving chooser (null in normal runs); `eligible_` is its reusable
  // scratch buffer for the sorted pending set.
  ScheduleChooser* chooser_ = nullptr;
  std::vector<SchedEvent> eligible_;
  // Guards against two host threads driving the same scheduler (the sweep
  // engine runs one Machine per job; sharing one is a bug). See Run().
  std::atomic<bool> host_busy_{false};
};

}  // namespace asfsim

#endif  // SRC_SIM_SCHEDULER_H_
