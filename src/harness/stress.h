// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Randomized fault-injection stress harness: runs an IntegerSet workload
// with an asffault::FaultInjector wired into the machine and a
// forward-progress watchdog on the lifecycle-event stream, then checks the
// invariants that must survive any fault mix:
//
//   * set linearizability via membership conservation — for every key, the
//     final membership equals the initial membership plus the net of
//     *successful* inserts and removes observed by the workload threads
//     (every committed operation took effect exactly once, no lost or
//     duplicated updates), plus the structure's own invariant check;
//   * statistics conservation — attempts = commits + aborts on the runtime's
//     aggregated TxStats (no attempt vanishes, none is double-counted);
//   * forward progress — the watchdog's verdict (callers assert kProgress,
//     or deliberately construct livelock/starvation and assert it fires).
//
// The result carries a Digest() string covering commits, aborts and
// injections per cause, cycle counts, and the final set contents; two runs
// of the same config must produce byte-identical digests (replayability).
#ifndef SRC_HARNESS_STRESS_H_
#define SRC_HARNESS_STRESS_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/fault/fault_injector.h"
#include "src/fault/fault_schedule.h"
#include "src/fault/watchdog.h"
#include "src/harness/experiment.h"

namespace harness {

struct StressConfig {
  // Workload shape (structure, threads, ops, runtime, policy, seed, ...).
  // The obs hooks are honored: the tracer attaches to the scheduler and the
  // tx_sink is chained *behind* the watchdog.
  IntsetConfig intset;
  // Faults to inject (asffault::FaultSchedule::Lookup for the built-ins).
  asffault::FaultSchedule schedule;
  asffault::WatchdogParams watchdog;
};

struct StressResult {
  IntsetResult intset;  // Measurements of the underlying run.

  // Effective injections per cause over the measured window.
  std::array<uint64_t, static_cast<size_t>(asfcommon::AbortCause::kNumCauses)> injected{};
  uint64_t total_injected = 0;

  bool watchdog_fired = false;
  asffault::Watchdog::Verdict verdict = asffault::Watchdog::Verdict::kProgress;
  std::string watchdog_diagnosis;
  // Cumulative per-core progress accounting (post-Finalize snapshot): every
  // starved core, max abort streaks, and the longest no-commit window. The
  // benches export this as the obs JSON "progress" section.
  asffault::Watchdog::ProgressReport progress;

  // Empty when every invariant held; else a description of the first
  // violation (membership mismatch, conservation failure, structure damage).
  std::string invariant_violation;

  uint64_t final_cycle = 0;
  uint64_t set_size = 0;
  uint64_t set_hash = 0;  // FNV-1a over the sorted final membership.

  // Replay-comparable fingerprint: commits/aborts/injections per cause,
  // cycle counts, and a hash of the final membership.
  std::string Digest() const;
};

// Runs one fault-injection stress configuration. Deterministic: the same
// config (including schedule seed) produces an identical StressResult.
StressResult RunStress(const StressConfig& cfg);

}  // namespace harness

#endif  // SRC_HARNESS_STRESS_H_
