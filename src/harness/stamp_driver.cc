// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/harness/stamp_driver.h"

#include "src/fault/fault_injector.h"
#include "src/harness/run_threads.h"
#include "src/sim/sync.h"
#include "src/stamp/genome.h"
#include "src/stamp/intruder.h"
#include "src/stamp/kmeans.h"
#include "src/stamp/labyrinth.h"
#include "src/stamp/ssca2.h"
#include "src/stamp/vacation.h"

namespace harness {

using asfsim::SimThread;
using asfsim::Task;

std::unique_ptr<stamp::StampApp> MakeStampApp(const std::string& name) {
  if (name == "genome") {
    return std::make_unique<stamp::Genome>();
  }
  if (name == "intruder") {
    return std::make_unique<stamp::Intruder>();
  }
  if (name == "kmeans-low") {
    return std::make_unique<stamp::KMeans>(false);
  }
  if (name == "kmeans-high") {
    return std::make_unique<stamp::KMeans>(true);
  }
  if (name == "labyrinth") {
    return std::make_unique<stamp::Labyrinth>();
  }
  if (name == "ssca2") {
    return std::make_unique<stamp::Ssca2>();
  }
  if (name == "vacation-low") {
    return std::make_unique<stamp::Vacation>(false);
  }
  if (name == "vacation-high") {
    return std::make_unique<stamp::Vacation>(true);
  }
  ASF_CHECK_MSG(false, "unknown STAMP app");
  return nullptr;
}

const std::vector<std::string>& StampAppNames() {
  static const std::vector<std::string> kNames = {
      "genome",    "intruder", "kmeans-low",   "kmeans-high",
      "labyrinth", "ssca2",    "vacation-low", "vacation-high",
  };
  return kNames;
}

StampResult RunStamp(stamp::StampApp& app, const StampConfig& cfg) {
  ASF_CHECK(cfg.threads >= 1 && cfg.threads <= 8);
  asf::MachineParams mp = PaperMachineParams(cfg.variant, cfg.threads, cfg.timer_interrupts);
  asf::Machine m(mp);
  if (cfg.obs.tracer != nullptr) {
    m.scheduler().SetTracer(cfg.obs.tracer);
  }
  // Fault schedules work on STAMP exactly as on the intset stress harness:
  // the injector strikes per access and the machine emits kFaultInjected.
  asffault::FaultInjector injector(cfg.schedule, m.scheduler().num_cores());
  if (!cfg.schedule.empty()) {
    m.SetFaultInjector(&injector);
  }
  asfobs::LatencyRecorder latency_rec;
  asfobs::HeatmapRecorder heatmap_rec;
  if (cfg.collect_latency) {
    latency_rec.SetNext(&heatmap_rec);
    heatmap_rec.SetNext(cfg.obs.tx_sink);
    m.SetTxSink(&latency_rec);
  } else if (cfg.obs.tx_sink != nullptr) {
    m.SetTxSink(cfg.obs.tx_sink);
  }
  IntsetConfig rt_cfg;  // Runtime construction shares the intset factory.
  rt_cfg.seed = cfg.seed;
  auto rt = MakeRuntime(cfg.runtime, m, rt_cfg);
  app.Setup(m, cfg.threads, cfg.seed, cfg.scale);

  asfsim::SimBarrier barrier_a(cfg.threads);
  asfsim::SimBarrier barrier_b(cfg.threads);
  uint64_t measure_start = 0;
  StampResult result;

  RunThreads(m, cfg.threads, [&](SimThread& t, uint32_t tid) -> Task<void> {
    co_await app.SimSetup(*rt, t, tid);
    co_await barrier_a.Arrive(t);
    if (tid == 0) {
      rt->ResetStats();
      for (uint32_t c = 0; c < m.scheduler().num_cores(); ++c) {
        m.scheduler().core(c).ResetStats();
        m.context(c).ResetStats();
      }
      m.mem().ResetStats();
      m.conflict_directory().ResetStats();
      injector.ResetCounts();
      if (cfg.obs.tracer != nullptr) {
        cfg.obs.tracer->Clear();
      }
      if (m.tx_sink() != nullptr) {
        m.tx_sink()->OnMeasurementReset();
      }
      measure_start = t.core().clock();
    }
    co_await barrier_b.Arrive(t);
    co_await app.Worker(*rt, t, tid);
  });

  result.exec_cycles = m.scheduler().MaxCycle() - measure_start;
  result.exec_ms = static_cast<double>(result.exec_cycles) /
                   (static_cast<double>(asfcommon::kCyclesPerMicrosecond) * 1000.0);
  result.tm = rt->TotalStats();
  result.mem = m.mem().TotalStats();
  for (uint32_t c = 0; c < m.scheduler().num_cores(); ++c) {
    for (size_t cat = 0; cat < result.breakdown.cycles.size(); ++cat) {
      result.breakdown.cycles[cat] +=
          m.scheduler().core(c).CategoryCycles(static_cast<asfsim::CycleCategory>(cat));
    }
    result.work_cycles += m.scheduler().core(c).total_work_cycles();
  }
  for (size_t c = 0; c < result.injected.size(); ++c) {
    result.injected[c] = injector.injected(static_cast<asfcommon::AbortCause>(c));
  }
  result.total_injected = injector.total_injected();
  if (cfg.collect_latency) {
    result.latency = latency_rec.stats();
    result.heatmap = heatmap_rec.stats();
  }
  result.validation = app.Validate();
  return result;
}

}  // namespace harness
