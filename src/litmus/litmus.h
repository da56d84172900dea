// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Litmus-test semantics harness: small multi-threaded TM programs executed
// exhaustively over bounded scheduler interleavings, with every reachable
// final state checked against a per-runtime allowed-outcome set.
//
// The paper argues semantics informally (Sec. 2.3/3.2): ASF is strongly
// isolated (plain accesses run conflict resolution against speculative
// regions), requester-wins keeps committed state consistent, and the serial
// fallback is irrevocable. The litmus harness turns each claim into an
// enumerable program: publication, privatization, dirty-read/strong
// isolation, mixed annotated/unannotated accesses, write skew, and
// serial-fallback irrevocability under injected faults.
//
// Enumeration is replay-based stateless model checking. The simulator is
// deterministic, so an execution is fully described by the sequence of
// choices made at scheduler decision points (moments with more than one
// runnable thread; see asfsim::ScheduleChooser). The explorer runs an
// execution with a forced choice prefix (default choice 0 — the reference
// schedule — beyond it), records every decision point's branch factor, and
// backtracks depth-first over unexplored branches. Each execution gets a
// fresh Machine, runtime, and shared state, so explored outcomes are real
// reachable final states, never artifacts of state restoration.
//
// Two mechanisms bound the search. First, a preemption (context) bound in
// the CHESS scheduling model: the reference schedule runs each thread until
// it blocks, finishes, or yields (sleeps — a backoff or polling wait hands
// the processor off, which keeps the reference schedule fair and
// terminating), and executions may deviate from that reference at a point
// where the running thread is still runnable at most kMaxPreemptions
// times, so the explored set is the complete bound-B schedule space rather
// than the exponential full tree (iterative context bounding; see
// kMaxPreemptions).
//
// Second, pruning: a decision point is expanded (its alternative branches queued) at
// most once per *state signature* — an FNV hash of the test-visible state
// (shared variables, per-thread progress counters, finished flags) plus the
// eligible-thread set. The signature deliberately excludes core clocks and
// runtime-internal metadata, so two states that differ only in timing or in
// TM bookkeeping collapse into one; this keeps the interleaving count
// tractable (the state lattice is quadratic in program length, not the
// exponential path count) at the cost of possibly skipping schedules whose
// divergence hides in the excluded state. Every outcome the explorer reports
// is still exact; the pruning only bounds which schedules get explored.
// `LitmusConfig::prune = false` disables the memo for cross-checking.
#ifndef SRC_LITMUS_LITMUS_H_
#define SRC_LITMUS_LITMUS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/asf/machine.h"
#include "src/fault/fault_schedule.h"
#include "src/harness/experiment.h"
#include "src/tm/tm_api.h"

namespace litmus {

// Final state of one execution, rendered as a short stable string
// (e.g. "r1=1 r2=0"). Map keys, so rendering must be canonical.
using Outcome = std::string;

// Safety cap on executed interleavings; `LitmusResult::hit_cap` reports
// whether enumeration was cut off (tests assert it was not).
inline constexpr uint64_t kMaxInterleavings = 50000;

// Preemption (context) bound, in the CHESS scheduling model: the reference
// schedule runs each thread until it blocks, finishes, or yields (sleeps),
// and an execution may deviate from the reference while the previous thread
// is still runnable at most this many times. Context switches away from a
// blocked or finished thread are free. The bound-B set contains every
// schedule reachable with <= B preemptions — the classic context-bounding
// result that almost all concurrency bugs manifest within two or three
// preemptions, at polynomial instead of exponential cost. Runtimes whose
// contention retries stretch executions (STM encounter-time conflicts,
// phased mode switches) stay enumerable only because of this bound.
inline constexpr uint32_t kMaxPreemptions = 4;

struct LitmusConfig {
  harness::RuntimeKind runtime = harness::RuntimeKind::kAsfTm;
  asf::AsfVariant variant = asf::AsfVariant::Llb8();
  // Folded into the runtime's RNG seeds; enumeration counts are asserted
  // deterministic per seed.
  uint64_t seed = 1;
  // Contention-policy spec for the runtime (asftm::MakeContentionPolicy);
  // empty = the runtime's built-in default.
  std::string policy;
  // State-signature pruning (see file comment). On by default.
  bool prune = true;
  // Deliberately breaks requester-wins conflict resolution for plain loads
  // (asf::MachineParams::break_requester_wins_for_testing): the mutation
  // check asserts the dirty-read litmus FAILS with this on.
  bool break_requester_wins = false;
};

struct LitmusResult {
  std::string test;
  std::string runtime;          // Human-readable runtime name.
  uint64_t interleavings = 0;   // Distinct executions run.
  uint64_t decision_points = 0; // Decision points expanded (alternatives queued).
  uint64_t pruned_branches = 0; // Alternatives skipped by the signature memo.
  uint64_t bounded_branches = 0;  // Alternatives skipped by the preemption bound.
  bool hit_cap = false;
  // Outcome -> number of executions that ended in it.
  std::map<Outcome, uint64_t> outcomes;
  // Human-readable failures: outcomes outside the allowed set, per-execution
  // invariant breaches, statistics-check failures.
  std::vector<std::string> violations;

  bool ok() const { return violations.empty() && !hit_cap; }
};

// Per-execution instance of a litmus test: shared state lives in the
// machine's arena, thread-local observation registers and progress counters
// live host-side in the instance itself.
class Execution {
 public:
  virtual ~Execution() = default;

  // The body of simulated thread `tid`. Must bump a per-thread progress
  // counter visible to StateHash() as it moves between steps.
  virtual asfsim::Task<void> Body(asfsim::SimThread& t, uint32_t tid) = 0;

  // Signature of the current test-visible state (shared variables +
  // per-thread progress); called host-side at every decision point.
  virtual uint64_t StateHash() const = 0;

  // Final-state outcome (canonical rendering); called after the run.
  virtual Outcome Read() const = 0;
};

// A litmus test: fixed thread bodies over a tiny shared state, per-runtime
// allowed-outcome predicate, optional fault schedule and stats check.
class LitmusTest {
 public:
  virtual ~LitmusTest() = default;

  virtual std::string name() const = 0;
  virtual std::string description() const = 0;
  virtual uint32_t threads() const = 0;

  // Builds one execution's shared state on `m` (arena-allocated and
  // pretouched, so incidental page faults do not perturb enumeration). The
  // bodies drive their atomic blocks through `rt` (borrowed; outlives the
  // execution).
  virtual std::unique_ptr<Execution> Prepare(asf::Machine& m, asftm::TmRuntime& rt) const = 0;

  // Whether `outcome` is allowed for `kind` on `variant`. Allowed sets are
  // per runtime *and* per hardware variant: e.g. the dirty-read partial
  // state is forbidden under strongly isolated ASF but allowed for the
  // weakly isolated write-through STM — and allowed again for the HTM
  // runtimes on an ASF1 static-set variant, whose capacity rule forces the
  // writer into its (unisolated) fallback path on every attempt.
  virtual bool Allowed(harness::RuntimeKind kind, const asf::AsfVariant& variant,
                       const Outcome& outcome) const = 0;

  // One-line rendering of the allowed set for tables and --litmus output.
  virtual std::string AllowedSummary(harness::RuntimeKind kind,
                                     const asf::AsfVariant& variant) const = 0;

  // Faults injected during every execution (empty = none). Rules should be
  // interleaving-independent (e.g. rate 1.0) so enumeration stays exhaustive
  // rather than schedule-coupled.
  virtual asffault::FaultSchedule Faults() const { return asffault::FaultSchedule{}; }

  // Post-run statistics invariant ("" = ok) — e.g. the irrevocability test
  // asserts no serial execution ever aborted.
  virtual std::string CheckStats(harness::RuntimeKind kind, const asftm::TxStats& stats) const {
    return "";
  }
};

// The registered litmus tests, in a fixed order.
const std::vector<const LitmusTest*>& AllTests();

// Finds a registered test by name; null if unknown.
const LitmusTest* FindTest(const std::string& name);

// Enumerates `test` under `cfg` and checks every reachable outcome.
LitmusResult RunLitmus(const LitmusTest& test, const LitmusConfig& cfg);

}  // namespace litmus

#endif  // SRC_LITMUS_LITMUS_H_
