// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Reproduces Figure 5: scalability of IntegerSet (linked list, skip list,
// red-black tree, hash set) with the four ASF implementation variants over
// thread counts {1, 2, 4, 8} and the paper's key ranges / update rates.
// Reported metric: throughput in transactions per microsecond (higher is
// better).
#include <cstdio>

#include "bench/bench_util.h"
#include "src/asf/asf_params.h"
#include "src/common/table.h"
#include "src/harness/experiment.h"
#include "src/harness/sweep.h"

namespace {

struct Panel {
  const char* title;
  const char* structure;
  uint64_t range;
  uint32_t update_pct;
};

}  // namespace

int main(int argc, char** argv) {
  benchutil::Options opt = benchutil::ParseArgs(argc, argv);
  benchutil::JsonReport report("fig5_intset_scalability", opt);
  const uint64_t ops = opt.quick ? 300 : 1500;

  // The eight panels of Figure 5.
  const Panel panels[] = {
      {"Intset:LinkList (range=28, 20% upd.)", "list", 28, 20},
      {"Intset:LinkList (range=512, 20% upd.)", "list", 512, 20},
      {"Intset:SkipList (range=1024, 20% upd.)", "skip", 1024, 20},
      {"Intset:SkipList (range=8192, 20% upd.)", "skip", 8192, 20},
      {"Intset:RBTree (range=1024, 20% upd.)", "rb", 1024, 20},
      {"Intset:RBTree (range=8192, 20% upd.)", "rb", 8192, 20},
      {"Intset:HashSet (range=256, 100% upd.)", "hash", 256, 100},
      {"Intset:HashSet (range=128000, 100% upd.)", "hash", 128000, 100},
  };
  const asf::AsfVariant variants[] = {
      asf::AsfVariant::Llb8(),
      asf::AsfVariant::Llb256(),
      asf::AsfVariant::Llb8WithL1(),
      asf::AsfVariant::Llb256WithL1(),
  };

  std::printf("Figure 5 reproduction: IntegerSet scalability (throughput, tx/us)\n\n");

  // Fan the full (panel x variant x threads) grid out across host threads;
  // formatting below reads results back in submit order, so the output is
  // identical for every --jobs value.
  harness::SweepRunner sweep(opt.jobs);
  for (const Panel& panel : panels) {
    for (const auto& variant : variants) {
      for (uint32_t threads : benchutil::ThreadCounts()) {
        harness::IntsetConfig cfg;
        cfg.structure = panel.structure;
        cfg.key_range = panel.range;
        cfg.update_pct = panel.update_pct;
        cfg.threads = threads;
        cfg.ops_per_thread = ops;
        cfg.variant = variant;
        cfg.collect_latency = true;
        sweep.SubmitIntset(benchutil::Seeded(cfg, opt));
      }
    }
  }
  sweep.Run();

  size_t job = 0;
  for (const Panel& panel : panels) {
    asfcommon::Table table(panel.title);
    std::vector<std::string> header = {"variant"};
    for (uint32_t t : benchutil::ThreadCounts()) {
      header.push_back(std::to_string(t) + "thr");
    }
    table.SetHeader(header);
    for (const auto& variant : variants) {
      std::vector<std::string> row = {variant.Name()};
      for (uint32_t threads : benchutil::ThreadCounts()) {
        (void)threads;
        row.push_back(asfcommon::Table::Num(sweep.intset(job++).tx_per_us, 2));
      }
      table.AddRow(row);
    }
    report.Print(table);

    // Tail latency per variant, merged across the panel's thread counts
    // (the mergeable fixed-bucket layout makes this exact, not approximate).
    const std::string panel_key =
        std::string(panel.structure) + "/" + std::to_string(panel.range);
    std::vector<std::pair<std::string, asfobs::LatencyStats>> lat;
    size_t j = job - sizeof(variants) / sizeof(variants[0]) * benchutil::ThreadCounts().size();
    for (const auto& variant : variants) {
      asfobs::LatencyStats merged;
      for (uint32_t threads : benchutil::ThreadCounts()) {
        (void)threads;
        merged.Merge(sweep.intset(j++).latency);
      }
      lat.emplace_back(variant.Name(), merged);
      report.AddLatency(panel_key + "/" + variant.Name(), merged);
      // Hot-line heatmaps for the paper's high-contention hash panel (the
      // 8-thread run per variant, where contention is at its worst).
      if (panel.update_pct == 100 && panel.range == 256) {
        report.AddHeatmap(panel_key + "/" + variant.Name(), sweep.intset(j - 1).heatmap);
      }
    }
    asfcommon::Table ltab = benchutil::LatencyTable(std::string(panel.title) + " [latency]", lat);
    report.Print(ltab);
  }
  return report.Write() ? 0 : 1;
}
