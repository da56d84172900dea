// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Reproduces Figure 7: influence of ASF capacity on throughput for the four
// ASF variants — linked list and red-black tree at eight threads, 20%
// updates, sweeping the initial structure size. Larger structures mean
// longer traversals, so the transactional working set outgrows the small
// variants' capacity and throughput collapses onto the serial fallback.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/asf/asf_params.h"
#include "src/common/table.h"
#include "src/harness/experiment.h"
#include "src/harness/sweep.h"

int main(int argc, char** argv) {
  benchutil::Options opt = benchutil::ParseArgs(argc, argv);
  benchutil::JsonReport report("fig7_capacity", opt);
  const uint64_t ops = opt.quick ? 200 : 800;
  const asf::AsfVariant variants[] = {
      asf::AsfVariant::Llb8(),
      asf::AsfVariant::Llb256(),
      asf::AsfVariant::Llb8WithL1(),
      asf::AsfVariant::Llb256WithL1(),
  };

  std::printf(
      "Figure 7 reproduction: ASF capacity vs throughput "
      "(8 threads, 20%% update, tx/us)\n\n");

  struct Study {
    const char* title;
    const char* structure;
    std::vector<uint64_t> sizes;  // Paper x-axes.
  };
  const Study studies[] = {
      {"Intset:LinkList (8 threads, 20% update)", "list", {6, 14, 30, 62, 126, 254, 510}},
      {"Intset:RBTree (8 threads, 20% update)",
       "rb",
       {8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}},
  };

  harness::SweepRunner sweep(opt.jobs);
  for (const Study& study : studies) {
    for (const auto& variant : variants) {
      for (uint64_t size : study.sizes) {
        harness::IntsetConfig cfg;
        cfg.structure = study.structure;
        cfg.key_range = size * 2;
        cfg.initial_size = size;
        cfg.update_pct = 20;
        cfg.threads = 8;
        cfg.ops_per_thread = ops;
        cfg.variant = variant;
        cfg.collect_latency = true;
        sweep.SubmitIntset(benchutil::Seeded(cfg, opt));
      }
    }
  }
  sweep.Run();

  size_t job = 0;
  for (const Study& study : studies) {
    asfcommon::Table table(study.title);
    std::vector<std::string> header = {"variant"};
    for (uint64_t s : study.sizes) {
      header.push_back(std::to_string(s));
    }
    table.SetHeader(header);
    std::vector<std::pair<std::string, asfobs::LatencyStats>> lat;
    for (const auto& variant : variants) {
      std::vector<std::string> row = {variant.Name()};
      asfobs::LatencyStats merged;
      for (size_t i = 0; i < study.sizes.size(); ++i) {
        const harness::IntsetResult& r = sweep.intset(job++);
        row.push_back(asfcommon::Table::Num(r.tx_per_us, 2));
        merged.Merge(r.latency);
      }
      table.AddRow(row);
      lat.emplace_back(variant.Name(), merged);
      report.AddLatency(std::string(study.structure) + "/" + variant.Name(), merged);
    }
    report.Print(table);

    // Capacity overflows surface as serial-mode tail latency: the small
    // variants' p99/p999 blow up exactly where throughput collapses.
    asfcommon::Table ltab = benchutil::LatencyTable(std::string(study.title) + " [latency]", lat);
    report.Print(ltab);
  }
  return report.Write() ? 0 : 1;
}
