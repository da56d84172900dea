// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Driver for the STAMP benchmark reproductions (paper Figures 3, 4 and 6):
// builds the machine and TM runtime, runs the app's in-simulation setup,
// resets statistics at the measurement barrier, executes the parallel
// region, and reports execution time plus transaction statistics.
#ifndef SRC_HARNESS_STAMP_DRIVER_H_
#define SRC_HARNESS_STAMP_DRIVER_H_

#include <array>
#include <memory>
#include <string>

#include "src/fault/fault_schedule.h"
#include "src/harness/experiment.h"
#include "src/stamp/stamp_app.h"

namespace harness {

struct StampConfig {
  RuntimeKind runtime = RuntimeKind::kAsfTm;
  asf::AsfVariant variant = asf::AsfVariant::Llb256();
  uint32_t threads = 8;
  uint32_t scale = 1;  // Input-size multiplier (1 = default sim-scale).
  uint64_t seed = 42;
  bool timer_interrupts = true;
  // Adverse-event schedule (src/fault); empty = no injection. Injected
  // faults emit kFaultInjected events, so latency histograms capture the
  // fault-induced tails.
  asffault::FaultSchedule schedule;
  ObsHooks obs;
  // Collect latency percentiles + hot-line heatmap (see IntsetConfig).
  bool collect_latency = false;
};

struct StampResult {
  uint64_t exec_cycles = 0;  // Measured parallel-region cycles.
  double exec_ms = 0.0;      // At the simulated 2.2 GHz.
  asftm::TxStats tm;
  CycleBreakdown breakdown;
  asfmem::MemStats mem;      // Aggregated over cores (measurement only).
  uint64_t work_cycles = 0;  // Pure instruction-stream cycles (all cores).
  std::string validation;    // Empty when the app's output checked out.
  // Injection counters (measured window), keyed by masqueraded cause.
  std::array<uint64_t, static_cast<size_t>(asfcommon::AbortCause::kNumCauses)> injected{};
  uint64_t total_injected = 0;
  // Filled only when StampConfig::collect_latency is set.
  asfobs::LatencyStats latency;
  asfobs::HeatmapStats heatmap;
};

// Factory for a fresh app instance (apps are single-use).
using StampAppFactory = std::unique_ptr<stamp::StampApp> (*)();

// Builds the app by `name`: genome, intruder, kmeans-low, kmeans-high,
// labyrinth, ssca2, vacation-low, vacation-high.
std::unique_ptr<stamp::StampApp> MakeStampApp(const std::string& name);

// All app names, in the paper's Figure 4 panel order.
const std::vector<std::string>& StampAppNames();

StampResult RunStamp(stamp::StampApp& app, const StampConfig& cfg);

}  // namespace harness

#endif  // SRC_HARNESS_STAMP_DRIVER_H_
