// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// The simulated machine: scheduler + cores + memory hierarchy + one ASF
// context per core, wired together behind the AccessHandler interface.
//
// Every memory operation of every simulated thread flows through
// Machine::OnAccess in global cycle order. The Machine applies ASF's
// requester-wins contention policy exactly at cache-line granularity
// (equivalent to the hardware piggybacking on coherence probes — see
// DESIGN.md §2) via the machine-global ConflictDirectory (one probe per
// touched line instead of a sweep over every other core's context),
// performs the per-core protected-set bookkeeping, charges memory-hierarchy
// latencies, and models the OS events (page faults, timer interrupts,
// system calls) that abort speculative regions.
#ifndef SRC_ASF_MACHINE_H_
#define SRC_ASF_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/asf/asf_context.h"
#include "src/asf/conflict_directory.h"
#include "src/common/arena.h"
#include "src/asf/asf_params.h"
#include "src/common/abort_cause.h"
#include "src/mem/memory_system.h"
#include "src/obs/tx_event.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"

namespace asffault {
class FaultInjector;
}  // namespace asffault

namespace asf {

struct MachineParams {
  uint32_t num_cores = 8;
  asfsim::CoreParams core;
  asfmem::MemParams mem;
  AsfVariant variant;
  AsfCosts costs;
  // Simulation-arena reservation. The default fits every workload; the
  // litmus explorer shrinks it because it constructs one Machine per
  // enumerated interleaving and the mmap/munmap of a large reservation
  // dominates its host time.
  uint64_t arena_bytes = 512ull << 20;
  // Mutation hook for the litmus suite (src/litmus): skips requester-wins
  // conflict resolution for *plain loads only*, letting an unannotated read
  // observe another core's uncommitted speculative store (a dirty read).
  // Plain loads do no protected-set bookkeeping, so the skip breaks no
  // directory invariant — it merely removes strong isolation. The semantics
  // tests assert they FAIL with this on, proving they actually exercise the
  // conflict-resolution path. Never set outside tests.
  bool break_requester_wins_for_testing = false;
};

// Ablation/equivalence hook (bench/perf_selfcheck --gate-check): force-
// disables the conflict directory's active-speculator gate and
// single-speculator fast path so every access runs the general per-line
// decode. The gates are pure host-side short circuits — simulated results
// must be bit-identical either way, which the perf_smoke ctest enforces.
// Each Machine snapshots the setting at construction.
bool SpeculatorGateDisabled();
void SetSpeculatorGateDisabled(bool disabled);

class Machine : public asfsim::AccessHandler, public asfmem::MemEventListener {
 public:
  explicit Machine(const MachineParams& params);
  ~Machine() override;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  asfsim::Scheduler& scheduler() { return scheduler_; }
  asfmem::MemorySystem& mem() { return mem_; }
  // Arena for all simulation-visible data (see src/common/arena.h): using it
  // makes experiments bit-for-bit reproducible across runs.
  asfcommon::SimArena& arena() { return arena_; }
  // Observability address normalization: events that name cache lines
  // (kConflictEdge) carry them arena-relative, because the arena's absolute
  // base is the one thing host mmap history moves between otherwise
  // identical runs — the *relative* layout is deterministic by construction
  // (src/common/arena.h). Rebasing at the source keeps live recorders,
  // offline replays, and trace exports consistent with each other, and
  // makes heatmaps bit-identical across runs whatever ran before in the
  // process. Lines outside the arena (runtime metadata in host statics) pass
  // through absolute.
  uint64_t ObsLine(uint64_t line) const {
    const uint64_t base = arena_.base() >> asfcommon::kCacheLineShift;
    const uint64_t count = arena_.capacity() >> asfcommon::kCacheLineShift;
    return line >= base && line - base < count ? line - base : line;
  }
  AsfContext& context(uint32_t core) { return *contexts_[core]; }
  // The speculative-line directory shared by all contexts (telemetry and
  // coherence introspection; contexts keep it up to date themselves).
  ConflictDirectory& conflict_directory() { return directory_; }
  const MachineParams& params() const { return params_; }

  // Optional host-side transaction-lifecycle observer. The TM runtimes emit
  // TxBegin/TxCommit/TxAbort/FallbackTransition/Backoff events through this
  // sink at zero simulated cost; null (the default) disables emission.
  void SetTxSink(asfobs::TxEventSink* sink) { tx_sink_ = sink; }
  asfobs::TxEventSink* tx_sink() const { return tx_sink_; }

  // Optional deterministic fault injector (src/fault): consulted once per
  // processed access, before the access's own semantics. Injected faults
  // abort the active region with the scheduled cause (emitting a
  // kFaultInjected event through the TxEvent sink) or, for interrupt/page-
  // fault injections outside a region, charge service latency only. Null
  // (the default) disables injection; the injector is borrowed, not owned.
  void SetFaultInjector(asffault::FaultInjector* injector) { fault_injector_ = injector; }
  asffault::FaultInjector* fault_injector() const { return fault_injector_; }

  // Executes the ABORT instruction on `t`'s core: architectural rollback
  // with `cause` reported in rAX, then control-flow unwind of the thread's
  // abortable scope. The returned task never resumes its awaiter.
  asfsim::Task<void> AbortRegion(asfsim::SimThread& t, asfcommon::AbortCause cause) {
    staged_abort_[t.id()] = cause;
    co_await t.Access(asfsim::AccessKind::kAbortOp, uint64_t{0}, 1);
    ASF_CHECK_MSG(false, "ABORT resumed its issuing region");
  }

  // --- AccessHandler -------------------------------------------------------
  asfsim::AccessOutcome OnAccess(asfsim::SimThread& thread, asfsim::AccessKind kind,
                                 uint64_t addr, uint32_t size) override;
  bool OnInterrupt(asfsim::SimThread& thread) override;

  // --- MemEventListener ----------------------------------------------------
  void OnL1LineDropped(uint32_t core, uint64_t line) override;

 private:
  // Aborts the region on `core` per requester-wins and marks the owning
  // thread for control-flow unwind. Returns the extra probe-stall cycles
  // charged to the requester (LLB backup write-back).
  uint64_t AbortVictim(uint32_t core, asfcommon::AbortCause cause);

  const MachineParams params_;
  asfcommon::SimArena arena_;
  asfsim::Scheduler scheduler_;
  asfmem::MemorySystem mem_;
  ConflictDirectory directory_;
  std::vector<std::unique_ptr<AsfContext>> contexts_;
  std::vector<asfcommon::AbortCause> staged_abort_;
  asfobs::TxEventSink* tx_sink_ = nullptr;
  asffault::FaultInjector* fault_injector_ = nullptr;
};

}  // namespace asf

#endif  // SRC_ASF_MACHINE_H_
