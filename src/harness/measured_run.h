// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// The measured-run skeleton shared by RunIntset, RunStress and RunStamp.
//
// A MeasuredRun owns the machine and its host-side observers: the tracer,
// the fault injector (installed only for a non-empty schedule) and the
// lifecycle-sink chain
//
//   [watchdog ->] [latency -> heatmap ->] caller's sink
//
// It spawns the workload's simulated threads, resets every statistic at the
// measurement barrier, and collects the result fields every run reports.
// Each entry point supplies only its workload body and its own checks.
#ifndef SRC_HARNESS_MEASURED_RUN_H_
#define SRC_HARNESS_MEASURED_RUN_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/asf/machine.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_schedule.h"
#include "src/fault/watchdog.h"
#include "src/harness/experiment.h"
#include "src/harness/run_threads.h"
#include "src/obs/heatmap.h"
#include "src/obs/latency.h"
#include "src/tm/tm_api.h"

namespace harness {

// Injection counts by (masqueraded) abort cause.
using CauseCounts = std::array<uint64_t, static_cast<size_t>(asfcommon::AbortCause::kNumCauses)>;

class MeasuredRun {
 public:
  // `watchdog`, when set, heads the sink chain so liveness monitoring sees
  // the raw event stream; it forwards everything down the chain.
  MeasuredRun(const asf::MachineParams& params, const ObsHooks& obs, bool collect_latency,
              const asffault::FaultSchedule& schedule = {},
              asffault::Watchdog* watchdog = nullptr);

  MeasuredRun(const MeasuredRun&) = delete;
  MeasuredRun& operator=(const MeasuredRun&) = delete;

  asf::Machine& machine() { return machine_; }
  // Named regions for the hot-line heatmap, in arena-relative coordinates.
  asfobs::RegionMap& heatmap_regions() { return heatmap_.regions(); }

  // Spawns `threads` simulated threads and runs them to completion. Each runs
  // setup(t, tid) and then meets the others at the measurement barrier, where
  // thread 0 resets the runtime, core, ASF-context, memory and directory
  // statistics, the injection counts, the tracer and the sink chain at one
  // simulated instant (no co_await between the resets); then measure(t, tid).
  void Run(asftm::TmRuntime& rt, uint32_t threads, const ThreadFn& setup,
           const ThreadFn& measure);

  // The measured window's common results: measure_cycles, tm, committed_tx,
  // tx_per_us, breakdown, asf and host, plus latency and heatmap when
  // collected. invariant_violation is left to the workload.
  IntsetResult Collect();

  void CollectInjected(CauseCounts* injected, uint64_t* total) const;

 private:
  asf::Machine machine_;
  asffault::FaultInjector injector_;
  asfobs::LatencyRecorder latency_;
  asfobs::HeatmapRecorder heatmap_;
  asfsim::Tracer* const tracer_;
  const bool collect_latency_;
  asftm::TmRuntime* rt_ = nullptr;
  uint64_t measure_start_ = 0;
};

// What a stress run records of the intset workload for its conservation
// checks.
struct IntsetOutcomes {
  std::vector<uint64_t> initial_keys;
  // net[tid][key]: successful inserts minus successful removes by `tid`.
  std::vector<std::vector<int64_t>> net;
  std::vector<uint64_t> final_keys;  // Final membership, ascending.
};

// Runs the IntegerSet workload on `run`: builds the set and the runtime,
// populates `initial_size` keys from thread 0, then runs the op mix on every
// thread. invariant_violation reports a broken structure. With `outcomes`
// set, also records whether each update succeeded.
IntsetResult RunIntsetWorkload(MeasuredRun& run, const IntsetConfig& cfg,
                               IntsetOutcomes* outcomes);

}  // namespace harness

#endif  // SRC_HARNESS_MEASURED_RUN_H_
