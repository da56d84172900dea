// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Reproduces Figure 8: throughput improvement from ASF early release
// (RELEASE) on the linked list — hand-over-hand traversal keeps only a
// sliding window of nodes in the read set, so even an 8-entry LLB suffices
// for long lists. Sweeps initial sizes 2^3 .. 2^9 at eight threads, 20%
// updates, for LLB-8 and LLB-256, with and without early release.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/asf/asf_params.h"
#include "src/common/table.h"
#include "src/harness/experiment.h"
#include "src/harness/sweep.h"

int main(int argc, char** argv) {
  benchutil::Options opt = benchutil::ParseArgs(argc, argv);
  benchutil::JsonReport report("fig8_early_release", opt);
  const uint64_t ops = opt.quick ? 200 : 800;
  const uint64_t sizes[] = {8, 16, 32, 64, 128, 256, 512};

  std::printf(
      "Figure 8 reproduction: early-release impact on the linked list\n"
      "(8 threads, 20%% update, throughput in tx/us)\n\n");

  harness::SweepRunner sweep(opt.jobs);
  for (const auto& variant : {asf::AsfVariant::Llb8(), asf::AsfVariant::Llb256()}) {
    for (bool early_release : {false, true}) {
      for (uint64_t size : sizes) {
        harness::IntsetConfig cfg;
        cfg.structure = early_release ? "list-er" : "list";
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
  for (const auto& variant : {asf::AsfVariant::Llb8(), asf::AsfVariant::Llb256()}) {
    asfcommon::Table table("Intset:LinkList (" + variant.Name() + ")");
    std::vector<std::string> header = {"mode"};
    for (uint64_t s : sizes) {
      header.push_back(std::to_string(s));
    }
    table.SetHeader(header);
    std::vector<std::pair<std::string, asfobs::LatencyStats>> lat;
    for (bool early_release : {false, true}) {
      std::vector<std::string> row = {early_release ? "With early release"
                                                    : "Without early release"};
      asfobs::LatencyStats merged;
      for (uint64_t size : sizes) {
        (void)size;
        const harness::IntsetResult& r = sweep.intset(job++);
        row.push_back(asfcommon::Table::Num(r.tx_per_us, 2));
        merged.Merge(r.latency);
      }
      table.AddRow(row);
      const std::string mode = early_release ? "early-release" : "plain";
      lat.emplace_back(mode, merged);
      report.AddLatency(variant.Name() + "/" + mode, merged);
    }
    report.Print(table);

    asfcommon::Table ltab =
        benchutil::LatencyTable("Intset:LinkList (" + variant.Name() + ") [latency]", lat);
    report.Print(ltab);
  }
  return report.Write() ? 0 : 1;
}
