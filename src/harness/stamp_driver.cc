// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/harness/stamp_driver.h"

#include <utility>

#include "src/harness/measured_run.h"
#include "src/stamp/genome.h"
#include "src/stamp/intruder.h"
#include "src/stamp/kmeans.h"
#include "src/stamp/labyrinth.h"
#include "src/stamp/ssca2.h"
#include "src/stamp/vacation.h"

namespace harness {

using asfsim::SimThread;

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
  // Fault schedules work on STAMP exactly as on the intset stress harness:
  // the injector strikes per access and the machine emits kFaultInjected.
  MeasuredRun run(PaperMachineParams(cfg.variant, cfg.threads, cfg.timer_interrupts), cfg.obs,
                  cfg.collect_latency, cfg.schedule);
  asf::Machine& m = run.machine();
  IntsetConfig rt_cfg;  // Runtime construction shares the intset factory.
  rt_cfg.seed = cfg.seed;
  auto rt = MakeRuntime(cfg.runtime, m, rt_cfg);
  app.Setup(m, cfg.threads, cfg.seed, cfg.scale);
  run.Run(
      *rt, cfg.threads,
      [&](SimThread& t, uint32_t tid) { return app.SimSetup(*rt, t, tid); },
      [&](SimThread& t, uint32_t tid) { return app.Worker(*rt, t, tid); });

  IntsetResult common = run.Collect();
  StampResult result;
  result.exec_cycles = common.measure_cycles;
  result.exec_ms = static_cast<double>(result.exec_cycles) /
                   (static_cast<double>(asfcommon::kCyclesPerMicrosecond) * 1000.0);
  result.tm = common.tm;
  result.breakdown = common.breakdown;
  result.latency = std::move(common.latency);
  result.heatmap = std::move(common.heatmap);
  result.mem = m.mem().TotalStats();
  for (uint32_t c = 0; c < m.scheduler().num_cores(); ++c) {
    result.work_cycles += m.scheduler().core(c).total_work_cycles();
  }
  run.CollectInjected(&result.injected, &result.total_injected);
  result.validation = app.Validate();
  return result;
}

}  // namespace harness
