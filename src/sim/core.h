// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Simulated CPU core: local cycle clock, cycle-category accounting, the
// work/IPC model, and the access-handler hook through which the memory
// hierarchy and the ASF layer observe every memory operation.
#ifndef SRC_SIM_CORE_H_
#define SRC_SIM_CORE_H_

#include <array>
#include <cstdint>

#include "src/common/abort_cause.h"
#include "src/common/defs.h"

namespace asfsim {

class SimThread;

// Kinds of simulated memory operations. The Tx* kinds correspond to ASF's
// LOCK MOV-annotated accesses (selective annotation, paper Sec. 2.2); plain
// kLoad/kStore are unannotated accesses, which inside a speculative region
// remain nontransactional.
enum class AccessKind : uint8_t {
  kLoad,
  kStore,
  kTxLoad,     // LOCK MOV load: protected read.
  kTxStore,    // LOCK MOV store: protected write (versioned in the LLB).
  kWatchR,     // WATCHR: start monitoring a line for remote stores.
  kWatchW,     // WATCHW: start monitoring a line for remote loads and stores.
  kRelease,    // RELEASE: drop a read-only line from the protected set (hint).
  kSpeculate,  // SPECULATE: enter (or nest into) a speculative region.
  kCommit,     // COMMIT: leave the innermost region level.
  kAbortOp,    // ABORT: software-initiated architectural abort.
  kSyscall,    // System call: aborts an active region (privilege switch).
};

constexpr bool IsTransactional(AccessKind k) {
  return k == AccessKind::kTxLoad || k == AccessKind::kTxStore || k == AccessKind::kWatchR ||
         k == AccessKind::kWatchW;
}

// Whether `k` accesses a memory line (WATCH included: its probes are real
// coherence traffic), as opposed to a region-control op or a system call.
constexpr bool IsMemoryAccess(AccessKind k) {
  return k == AccessKind::kLoad || k == AccessKind::kStore || IsTransactional(k);
}

// Cycle categories used to reproduce the paper's Table 1 / Figure 9
// single-thread overhead breakdown.
enum class CycleCategory : uint8_t {
  kOutsideTx = 0,     // Code outside any transaction.
  kTxNonInstr,        // Non-instrumented code inside a transaction.
  kTxAppCode,         // Instrumented application code inside a transaction.
  kTxLoadStore,       // TM load/store instrumentation (barriers).
  kTxStartCommit,     // Transaction begin and commit paths.
  kTxAbortWaste,      // Cycles of attempts that later aborted, plus restart work.
  kNumCategories,
};

const char* CycleCategoryName(CycleCategory c);
const char* AccessKindName(AccessKind k);

// One contiguous charge of cycles to a category, as recorded by a core's
// span sink (host-side observer; see Tracer). Every cycle a core's clock
// advances is covered by exactly one span, so offline aggregation of spans
// reproduces the online per-category accounting. `attempt` is nonzero when
// the cycles were charged into an open per-attempt buffer: offline analysis
// must fold such spans into kTxAbortWaste when the attempt later aborted —
// the same reclassification CommitAttemptAccounting/AbortAttemptAccounting
// perform online (lifecycle events report each attempt's outcome by id).
struct CycleSpan {
  uint64_t start;   // Core clock before the charge.
  uint64_t cycles;  // Charged cycles (> 0).
  uint32_t core;
  CycleCategory category;
  uint64_t attempt;  // Core-local attempt id (Core::attempt_seq()); 0 = none.
};

// Host-side consumer of cycle spans (implemented by asfsim::Tracer).
class CycleSpanSink {
 public:
  virtual ~CycleSpanSink() = default;
  virtual void RecordSpan(const CycleSpan& span) = 0;
};

// Outcome of processing one access in the machine model.
struct AccessOutcome {
  uint64_t latency = 0;  // Load-to-use cycles charged to the issuing core.
  // If true, the issuing core's speculative region must abort (capacity,
  // page fault inside a region, illegal access, STM conflict, ...); the
  // cause has already been recorded on the thread by the handler.
  bool self_abort = false;
};

// Implemented by the machine model (memory hierarchy + ASF layer). Invoked
// by the scheduler for every access, in global cycle order.
class AccessHandler {
 public:
  virtual ~AccessHandler() = default;
  virtual AccessOutcome OnAccess(SimThread& thread, AccessKind kind, uint64_t addr,
                                 uint32_t size) = 0;

  // Invoked when a timer interrupt fires on `thread`'s core. The machine
  // model rolls back any active speculative region (ASF regions abort on all
  // privilege-level switches) and returns true so the scheduler unwinds the
  // thread's abortable scope; STM attempts survive interrupts and return
  // false.
  virtual bool OnInterrupt(SimThread& thread) { return false; }
};

// Tunable core parameters.
struct CoreParams {
  // Average sustained instructions per cycle for plain ALU work; the paper's
  // Barcelona core is three-wide out-of-order, which on integer-heavy TM
  // code sustains roughly 1.5 IPC.
  double ipc = 1.5;
  // Timer-interrupt period and service cost in cycles. 2.2 GHz with a 1 kHz
  // OS tick gives 2.2 M cycles between ticks (paper: interrupts abort
  // in-flight speculative regions).
  uint64_t timer_period = 2'200'000;
  uint64_t timer_cost = 5'000;
  bool timer_enabled = true;
  // Extra cycles charged for LOCK-prefixed read-modify-write operations
  // (CMPXCHG/XADD): they serialize the pipeline and drain the store buffer
  // on the modeled out-of-order core.
  uint64_t rmw_extra_cycles = 30;
};

// One simulated CPU core. A core is bound 1:1 to a SimThread by the
// scheduler for the duration of a run.
class Core {
 public:
  Core(uint32_t id, const CoreParams& params) : id_(id), params_(params) {
    next_timer_ = params.timer_period;
    for (uint64_t n = 0; n < kWorkTableSize; ++n) {
      work_cycles_[n] = WorkCyclesOf(n);
    }
  }

  uint32_t id() const { return id_; }
  uint64_t clock() const { return clock_; }
  const CoreParams& params() const { return params_; }

  // --- Work model -------------------------------------------------------
  // Records `instructions` worth of plain computation; the cycles are
  // charged lazily, right before the next memory access is processed, so
  // accesses are always processed in global cycle order. Each recorded batch
  // remembers the cycle category in effect when the work happened, so
  // application compute is attributed to app code even when it is flushed
  // from inside a TM barrier (which runs under its own category guard).
  void WorkInstructions(uint64_t instructions) {
    pending_by_cat_[static_cast<size_t>(category_)] +=
        instructions < kWorkTableSize ? work_cycles_[instructions] : WorkCyclesOf(instructions);
    has_pending_work_ = true;
  }
  void WorkCycles(uint64_t cycles) {
    pending_by_cat_[static_cast<size_t>(category_)] += cycles;
    has_pending_work_ = true;
  }
  // Charges all pending work: advances the clock and attributes each batch
  // to its recording category. Returns the total cycles charged.
  uint64_t TakePendingWork();
  bool has_pending_work() const { return has_pending_work_; }

  // --- Clock and accounting ---------------------------------------------
  // Advances the clock to `cycle` and attributes the elapsed cycles to the
  // current category (into the attempt buffer while one is open).
  void AdvanceTo(uint64_t cycle);

  CycleCategory category() const { return category_; }
  void SetCategory(CycleCategory c) { category_ = c; }

  // Optional host-side span observer (zero simulated cost; null = disabled).
  void SetSpanSink(CycleSpanSink* sink) { span_sink_ = sink; }

  // Monotone id of the most recently opened attempt-accounting buffer (never
  // reset, so ids stay unique across a measurement-barrier stats reset).
  uint64_t attempt_seq() const { return attempt_seq_; }
  bool attempt_open() const { return attempt_open_; }

  // Opens a per-attempt accounting buffer. While open, cycles accumulate in
  // the buffer; CommitAttempt() folds them into their real categories and
  // AbortAttempt() folds everything into kTxAbortWaste. This reproduces the
  // paper's offline trace classification: only committed work counts as
  // useful, aborted work is waste.
  void BeginAttemptAccounting();
  void CommitAttemptAccounting();
  void AbortAttemptAccounting();

  uint64_t CategoryCycles(CycleCategory c) const {
    return categories_[static_cast<size_t>(c)];
  }
  uint64_t TotalCycles() const;
  // Total ALU-work cycles charged so far (the pure instruction-stream
  // component, used by the Figure-3 analytical reference model).
  uint64_t total_work_cycles() const { return total_work_cycles_; }

  // --- Timer interrupts ---------------------------------------------------
  // Returns true if a timer interrupt fires at or before `cycle`; charges
  // the service cost. The caller (scheduler) aborts any active region.
  bool CheckTimer(uint64_t cycle);

  void ResetStats();

 private:
  // WorkInstructions reads the cycles of a batch of fewer instructions than
  // this from a table instead of dividing; the table holds WorkCyclesOf.
  static constexpr uint64_t kWorkTableSize = 128;

  // Cycles `instructions` of plain computation take at the core's IPC.
  uint64_t WorkCyclesOf(uint64_t instructions) const {
    return static_cast<uint64_t>(static_cast<double>(instructions) / params_.ipc + 0.5);
  }

  const uint32_t id_;
  const CoreParams params_;
  std::array<uint64_t, kWorkTableSize> work_cycles_;
  uint64_t clock_ = 0;
  std::array<uint64_t, static_cast<size_t>(CycleCategory::kNumCategories)> pending_by_cat_{};
  bool has_pending_work_ = false;
  uint64_t total_work_cycles_ = 0;
  uint64_t next_timer_ = 0;
  CycleCategory category_ = CycleCategory::kOutsideTx;
  CycleSpanSink* span_sink_ = nullptr;
  uint64_t attempt_seq_ = 0;
  bool attempt_open_ = false;
  std::array<uint64_t, static_cast<size_t>(CycleCategory::kNumCategories)> categories_{};
  std::array<uint64_t, static_cast<size_t>(CycleCategory::kNumCategories)> attempt_buffer_{};
};

// RAII guard that switches a core's cycle category and restores the previous
// one on scope exit. Used by the TM runtimes to classify begin/commit and
// load/store barrier cycles.
class CategoryGuard {
 public:
  CategoryGuard(Core& core, CycleCategory c) : core_(core), prev_(core.category()) {
    core_.SetCategory(c);
  }
  ~CategoryGuard() { core_.SetCategory(prev_); }
  CategoryGuard(const CategoryGuard&) = delete;
  CategoryGuard& operator=(const CategoryGuard&) = delete;

 private:
  Core& core_;
  CycleCategory prev_;
};

}  // namespace asfsim

#endif  // SRC_SIM_CORE_H_
