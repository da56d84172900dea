// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Reproduces Figure 3 — simulator accuracy — under the substitution
// documented in DESIGN.md: the paper compares PTLsim-ASF against native
// Barcelona hardware (unavailable here); we compare the detailed timing
// model against an independent first-order analytical reference built from
// the run's event counts (instruction-stream cycles plus flat per-level
// memory latencies). The reported deviation quantifies how much the modeled
// interactions the analytical reference ignores — TLB walks, page-fault
// service, timer interrupts, coherence upgrade timing — contribute, playing
// the same role as the paper's simulated-vs-native deviation. Runs are the
// STAMP applications single-threaded without TM instrumentation, matching
// the paper's "no TM, no ASF, one thread" setup.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/harness/stamp_driver.h"
#include "src/harness/sweep.h"

int main(int argc, char** argv) {
  benchutil::Options opt = benchutil::ParseArgs(argc, argv);
  benchutil::JsonReport report("fig3_sim_accuracy", opt);
  const uint32_t scale = opt.quick ? 1 : 2;
  const asfmem::MemParams mem_params;  // Latency constants of the reference.

  std::printf(
      "Figure 3 reproduction: timing-model deviation from the first-order\n"
      "analytical reference (STAMP, no TM, one thread).\n\n");
  asfcommon::Table table("Performance deviation (simulated over reference)");
  table.SetHeader({"benchmark", "simulated-cycles", "reference-cycles", "deviation"});

  harness::SweepRunner sweep(opt.jobs);
  for (const std::string& app_name : harness::StampAppNames()) {
    harness::StampConfig cfg;
    cfg.runtime = harness::RuntimeKind::kSequential;
    cfg.threads = 1;
    cfg.scale = scale;
    cfg.collect_latency = true;
    sweep.SubmitStamp(app_name, benchutil::Seeded(cfg, opt));
  }
  sweep.Run();

  std::vector<std::pair<std::string, asfobs::LatencyStats>> lat;
  size_t job = 0;
  for (const std::string& app_name : harness::StampAppNames()) {
    const harness::StampResult& r = sweep.stamp(job++);
    lat.emplace_back(app_name, r.latency);
    report.AddLatency(app_name, r.latency);
    if (!r.validation.empty()) {
      std::fprintf(stderr, "VALIDATION FAILED: %s\n", r.validation.c_str());
      return 1;
    }
    // First-order reference: work + flat memory costs from event counts.
    const asfmem::MemStats& ms = r.mem;
    uint64_t reference =
        r.work_cycles + ms.l1_hits * mem_params.l1_latency + ms.l2_hits * mem_params.l2_latency +
        ms.l3_hits * mem_params.l3_latency + ms.remote_hits * mem_params.remote_latency +
        ms.ram_accesses * mem_params.ram_latency + ms.upgrades * mem_params.upgrade_latency +
        ms.page_faults * mem_params.page_fault_cycles;
    double deviation = 100.0 *
                       (static_cast<double>(r.exec_cycles) - static_cast<double>(reference)) /
                       static_cast<double>(reference);
    table.AddRow({app_name, asfcommon::Table::Int(static_cast<long long>(r.exec_cycles)),
                  asfcommon::Table::Int(static_cast<long long>(reference)),
                  asfcommon::Table::Num(deviation, 2) + " %"});
  }
  report.Print(table);

  // Atomic-block latency of the uninstrumented sequential runs (serial-mode
  // blocks, so aborts and backoff are structurally zero).
  asfcommon::Table ltab = benchutil::LatencyTable("Sequential runs [latency]", lat);
  report.Print(ltab);
  std::printf(
      "Note: the paper's Figure 3 reports 10-15%% deviation of PTLsim-ASF\n"
      "from native execution for five of eight applications. The reference\n"
      "here is analytical (see DESIGN.md); the deviation captures the same\n"
      "kind of unmodeled-interaction error.\n");
  return report.Write() ? 0 : 1;
}
