// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/harness/measured_run.h"

#include "src/sim/sync.h"

namespace harness {

using asfsim::SimThread;
using asfsim::Task;

MeasuredRun::MeasuredRun(const asf::MachineParams& params, const ObsHooks& obs,
                         bool collect_latency, const asffault::FaultSchedule& schedule,
                         asffault::Watchdog* watchdog)
    : machine_(params),
      injector_(schedule, machine_.scheduler().num_cores()),
      tracer_(obs.tracer),
      collect_latency_(collect_latency) {
  if (tracer_ != nullptr) {
    machine_.scheduler().SetTracer(tracer_);
  }
  // An empty schedule has no rules to consult, so the injector stays out of
  // the per-access path.
  if (!schedule.empty()) {
    machine_.SetFaultInjector(&injector_);
  }
  asfobs::TxEventSink* head = obs.tx_sink;  // May be null: the chain just ends.
  if (collect_latency_) {
    heatmap_.SetNext(head);
    latency_.SetNext(&heatmap_);
    head = &latency_;
  }
  if (watchdog != nullptr) {
    watchdog->set_next(head);
    head = watchdog;
  }
  if (head != nullptr) {
    machine_.SetTxSink(head);
  }
}

void MeasuredRun::Run(asftm::TmRuntime& rt, uint32_t threads, const ThreadFn& setup,
                      const ThreadFn& measure) {
  ASF_CHECK(threads >= 1 && threads <= asfcommon::kMaxCores);
  rt_ = &rt;
  asfsim::SimBarrier setup_done(threads);
  asfsim::SimBarrier reset_done(threads);
  RunThreads(machine_, threads, [&](SimThread& t, uint32_t tid) -> Task<void> {
    co_await setup(t, tid);
    co_await setup_done.Arrive(t);
    if (tid == 0) {
      // Host-side and free: warm-up data is dropped at the instant the
      // measured window opens, so observers cover exactly that window.
      rt.ResetStats();
      for (uint32_t c = 0; c < machine_.scheduler().num_cores(); ++c) {
        machine_.scheduler().core(c).ResetStats();
        machine_.context(c).ResetStats();
      }
      machine_.mem().ResetStats();
      machine_.conflict_directory().ResetStats();
      injector_.ResetCounts();
      if (tracer_ != nullptr) {
        tracer_->Clear();
      }
      if (machine_.tx_sink() != nullptr) {
        machine_.tx_sink()->OnMeasurementReset();  // Forwarded down the chain.
      }
      measure_start_ = t.core().clock();
    }
    co_await reset_done.Arrive(t);
    co_await measure(t, tid);
  });
}

IntsetResult MeasuredRun::Collect() {
  asf::Machine& m = machine_;
  IntsetResult r;
  r.measure_cycles = m.scheduler().MaxCycle() - measure_start_;
  r.tm = rt_->TotalStats();
  r.committed_tx = r.tm.Commits();
  if (r.measure_cycles > 0) {
    r.tx_per_us = static_cast<double>(r.committed_tx) *
                  static_cast<double>(asfcommon::kCyclesPerMicrosecond) /
                  static_cast<double>(r.measure_cycles);
  }
  for (uint32_t c = 0; c < m.scheduler().num_cores(); ++c) {
    for (size_t cat = 0; cat < r.breakdown.cycles.size(); ++cat) {
      r.breakdown.cycles[cat] +=
          m.scheduler().core(c).CategoryCycles(static_cast<asfsim::CycleCategory>(cat));
    }
    const asf::AsfContextStats& cs = m.context(c).stats();
    r.asf.speculates += cs.speculates;
    r.asf.commits += cs.commits;
    for (size_t a = 0; a < cs.aborts.size(); ++a) {
      r.asf.aborts[a] += cs.aborts[a];
    }
  }
  r.host.wakes = m.scheduler().wakes_scheduled();
  r.host.fast_wakes = m.scheduler().fast_wakes();
  r.host.accesses = m.scheduler().accesses();
  r.host.inline_wakes = m.scheduler().inline_wakes();
  const asfmem::MemFastPathStats& fp = m.mem().fast_path_stats();
  r.host.mem_accesses = fp.accesses;
  r.host.mem_line_hits = fp.line_hits;
  r.host.mem_page_hits = fp.page_hits;
  const asf::ConflictDirectory::Stats& ds = m.conflict_directory().stats();
  r.host.dir_resolutions = ds.resolutions;
  r.host.dir_gate_skips = ds.gate_skips;
  r.host.dir_probes = ds.probes;
  r.host.dir_probe_hits = ds.probe_hits;
  if (collect_latency_) {
    r.latency = latency_.stats();
    r.heatmap = heatmap_.stats();
  }
  return r;
}

void MeasuredRun::CollectInjected(CauseCounts* injected, uint64_t* total) const {
  for (size_t c = 0; c < injected->size(); ++c) {
    (*injected)[c] = injector_.injected(static_cast<asfcommon::AbortCause>(c));
  }
  *total = injector_.total_injected();
}

}  // namespace harness
