// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Host-parallel sweep engine for the experiment grids the paper's figures
// are built from (variants x runtimes x thread counts x seeds).
//
// The simulator itself is strictly single-host-threaded and deterministic
// (src/sim/scheduler.h), so parallelism lives one level up: every sweep job
// owns its own asf::Machine, RNG state, and (if it wants them) observers —
// there is no shared mutable state between jobs (Scheduler::Run enforces
// single-host-thread ownership with an atomic guard). Results land in
// deterministic job-index order regardless of which worker ran which job,
// so a sweep at --jobs N is byte-identical to --jobs 1, which in turn is
// bit-for-bit the old serial loop.
//
// Per-job results stay per-job until the join; aggregate them afterwards
// (e.g. asftm::TxStats::Add) — never share an observer across running jobs.
#ifndef SRC_HARNESS_SWEEP_H_
#define SRC_HARNESS_SWEEP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/stamp_driver.h"
#include "src/harness/stress.h"

namespace harness {

// Default host-parallel job count: std::thread::hardware_concurrency(),
// clamped to at least 1.
uint32_t DefaultJobs();

// Runs fn(0) .. fn(n-1) across up to `jobs` host threads. Jobs are claimed
// from an atomic counter, so distinct indices never run twice and each index
// runs on exactly one thread. With jobs <= 1 (or n <= 1) everything runs
// inline on the calling thread in index order — the serial path spawns no
// threads at all.
void ParallelFor(uint32_t jobs, size_t n, const std::function<void(size_t)>& fn);

// Job pool with deterministic result collection. Usage:
//
//   SweepRunner sweep(opt.jobs);
//   std::vector<size_t> ids;
//   for (const auto& cell : grid) ids.push_back(sweep.SubmitIntset(MakeCfg(cell)));
//   sweep.Run();
//   for (size_t id : ids) Format(sweep.intset(id));
//
// Submit order defines result order; Run() fans the queued jobs out and
// joins before returning. Configs are taken by value at submit time.
class SweepRunner {
 public:
  // jobs == 0 selects DefaultJobs().
  explicit SweepRunner(uint32_t jobs = 0);

  uint32_t jobs() const { return jobs_; }

  // Each Submit* returns an index into that family's result accessor below.
  // Configs must not carry obs hooks shared with another job; attach
  // observers from inside a custom Submit() job instead (one per job), or
  // run with jobs() == 1.
  size_t SubmitIntset(const IntsetConfig& cfg);
  size_t SubmitIntsetOnParams(const IntsetConfig& cfg, const asf::MachineParams& params);
  // The app is constructed inside the job (apps are single-use and must be
  // built by the host thread that simulates them).
  size_t SubmitStamp(const std::string& app_name, const StampConfig& cfg);
  size_t SubmitStress(const StressConfig& cfg);
  // Arbitrary job; the callable owns everything it touches.
  size_t Submit(std::function<void()> fn);

  // Runs every queued job (across jobs() host threads) and joins. The queue
  // is cleared; results stay until the next Run() batch is submitted.
  void Run();

  const IntsetResult& intset(size_t i) const { return intset_results_[i]; }
  const StampResult& stamp(size_t i) const { return stamp_results_[i]; }
  const StressResult& stress(size_t i) const { return stress_results_[i]; }

 private:
  const uint32_t jobs_;
  std::vector<std::function<void()>> queue_;
  // Deques: growth never moves existing elements, so queued jobs can hold
  // stable result pointers.
  std::deque<IntsetResult> intset_results_;
  std::deque<StampResult> stamp_results_;
  std::deque<StressResult> stress_results_;
};

}  // namespace harness

#endif  // SRC_HARNESS_SWEEP_H_
