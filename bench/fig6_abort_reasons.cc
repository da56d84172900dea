// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Reproduces Figure 6: breakdown of ASF abort reasons for the STAMP
// applications across the four implementation variants and thread counts
// {1, 2, 4, 8}. For each configuration the table reports the overall abort
// rate (aborted attempts over all attempts) and its composition by cause —
// contention, capacity, page fault, system call/interrupt, and allocator
// refills ("Abort (malloc)" in the paper's legend).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/harness/stamp_driver.h"
#include "src/harness/sweep.h"

namespace {

using asfcommon::AbortCause;

double Pct(uint64_t part, uint64_t whole) {
  if (whole == 0) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Options opt = benchutil::ParseArgs(argc, argv);
  benchutil::JsonReport report("fig6_abort_reasons", opt);
  const uint32_t scale = opt.quick ? 1 : 2;
  const asf::AsfVariant variants[] = {
      asf::AsfVariant::Llb8(),
      asf::AsfVariant::Llb256(),
      asf::AsfVariant::Llb8WithL1(),
      asf::AsfVariant::Llb256WithL1(),
  };

  std::printf(
      "Figure 6 reproduction: ASF abort rates and reasons (percent of all "
      "attempts)\n\n");

  harness::SweepRunner sweep(opt.jobs);
  for (const std::string& app_name : harness::StampAppNames()) {
    for (const auto& variant : variants) {
      for (uint32_t threads : benchutil::ThreadCounts()) {
        harness::StampConfig cfg;
        cfg.variant = variant;
        cfg.threads = threads;
        cfg.scale = scale;
        cfg.collect_latency = true;
        sweep.SubmitStamp(app_name, benchutil::Seeded(cfg, opt));
      }
    }
  }
  sweep.Run();

  size_t job = 0;
  for (const std::string& app_name : harness::StampAppNames()) {
    asfcommon::Table table("STAMP: " + app_name);
    table.SetHeader({"variant", "thr", "abort%", "contention", "capacity", "page-fault",
                     "sys/intr", "malloc", "serial-restart"});
    std::vector<std::pair<std::string, asfobs::LatencyStats>> lat;
    for (const auto& variant : variants) {
      asfobs::LatencyStats merged;
      for (uint32_t threads : benchutil::ThreadCounts()) {
        const harness::StampResult& r = sweep.stamp(job++);
        merged.Merge(r.latency);
        if (!r.validation.empty()) {
          std::fprintf(stderr, "VALIDATION FAILED: %s\n", r.validation.c_str());
          return 1;
        }
        // Figure 6 defines the abort rate over all attempts, including
        // serial-mode and STM attempts; TotalAttempts() matches
        // TxStats::AbortRatePercent.
        uint64_t attempts = r.tm.TotalAttempts();
        table.AddRow({variant.Name(), std::to_string(threads),
                      asfcommon::Table::Num(Pct(r.tm.TotalAborts(), attempts), 2),
                      asfcommon::Table::Num(Pct(r.tm.Aborts(AbortCause::kContention), attempts), 2),
                      asfcommon::Table::Num(Pct(r.tm.Aborts(AbortCause::kCapacity), attempts), 2),
                      asfcommon::Table::Num(Pct(r.tm.Aborts(AbortCause::kPageFault), attempts), 2),
                      asfcommon::Table::Num(Pct(r.tm.Aborts(AbortCause::kSyscall) +
                                                    r.tm.Aborts(AbortCause::kInterrupt),
                                                attempts),
                                            2),
                      asfcommon::Table::Num(Pct(r.tm.Aborts(AbortCause::kMallocRefill), attempts),
                                            2),
                      asfcommon::Table::Num(Pct(r.tm.Aborts(AbortCause::kRestartSerial), attempts),
                                            2)});
      }
      lat.emplace_back(variant.Name(), merged);
      report.AddLatency(app_name + "/" + variant.Name(), merged);
    }
    report.Print(table);

    // The wasted-cycle tail of the same abort mix: how the aborts above
    // translate into per-block latency and wasted work.
    asfcommon::Table ltab =
        benchutil::LatencyTable("STAMP: " + app_name + " [latency]", lat);
    report.Print(ltab);
  }
  return report.Write() ? 0 : 1;
}
