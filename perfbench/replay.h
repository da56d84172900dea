// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Layer replays for the traced benchmark run. One representative
// configuration's recorded streams — the memory operations an
// asfsim::Tracer logged and the transaction lifecycle events of the
// measured window — are fed through each layer's public functions, once
// untimed (to warm host caches and derive per-layer operation logs) and once
// timed. Each replay also reports how closely it reproduced the recorded
// run, so a per-layer cost from a replay that drifted is not read as the
// layer's cost.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "src/asf/asf_params.h"
#include "src/asf/conflict_directory.h"
#include "src/mem/memory_system.h"
#include "src/obs/latency.h"
#include "src/obs/tx_event.h"
#include "src/sim/trace.h"

namespace perfbench {

// What the recorded run itself reported, for the fidelity figures.
struct RecordedFigures {
  uint32_t cores = 0;
  asf::AsfVariant variant;
  uint64_t speculates = 0;          // Outermost SPECULATEs (measured window).
  uint64_t contention_aborts = 0;   // Requester-wins victims (measured window).
  asfobs::LatencyStats latency;     // Online latency recorder's statistics.
  uint64_t heatmap_edges = 0;       // Online heatmap recorder's edge count.
};

struct ReplayResult {
  uint64_t ops = 0;  // Operations in the recorded memory stream.

  // sim: a standalone Scheduler whose AccessHandler returns the recorded
  // latencies, with the recorded gaps charged as work.
  uint64_t sim_wakes = 0;
  uint64_t sim_fast_wakes = 0;
  uint64_t sim_inline_wakes = 0;
  double sim_seconds = 0.0;
  double sim_fidelity = 0.0;  // Replayed vs recorded per-core end cycles.

  // mem: MemorySystem::Access over the stream's memory operations.
  uint64_t mem_accesses = 0;
  double mem_seconds = 0.0;
  asfmem::MemStats mem;                // Timed pass.
  asfmem::MemFastPathStats mem_fast;   // Timed pass.
  double mem_fidelity = 0.0;           // Replayed vs recorded latency sums.

  // asf: ConflictDirectory and Llb call logs derived from the stream.
  uint64_t dir_ops = 0;
  double dir_seconds = 0.0;
  asf::ConflictDirectory::Stats dir;   // Timed pass.
  uint64_t llb_ops = 0;
  double llb_seconds = 0.0;
  uint64_t speculates = 0;
  uint64_t victims = 0;
  double speculate_fidelity = 0.0;
  double victim_fidelity = 0.0;

  // obs: the lifecycle stream through the latency and heatmap recorders.
  uint64_t obs_events = 0;
  double obs_seconds = 0.0;
  bool obs_exact = false;  // Replayed statistics equal the online ones.
};

// min(a, b) / max(a, b): 1 when the replay reproduced the recorded figure
// exactly (including both being 0), towards 0 as it drifts.
double Fidelity(double replayed, double recorded);

ReplayResult ReplayLayers(const std::vector<asfsim::TraceEvent>& ops,
                          const std::vector<asfobs::TxEvent>& events,
                          const RecordedFigures& recorded);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
