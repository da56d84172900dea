// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Reproduces Figure 4: scalability of the STAMP applications with the four
// ASF implementation variants, TinySTM, and the sequential (no-TM) baseline,
// over thread counts {1, 2, 4, 8}. Reported metric: execution time of the
// parallel region in milliseconds at the simulated 2.2 GHz (lower is
// better); the "Sequential" row is the single-threaded uninstrumented run
// (the paper's horizontal bar).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/fault/fault_schedule.h"
#include "src/harness/stamp_driver.h"
#include "src/harness/sweep.h"

int main(int argc, char** argv) {
  std::string schedule_arg;
  benchutil::Options opt = benchutil::ParseArgs(
      argc, argv,
      {{.name = "--schedule",
        .operand = &schedule_arg,
        .usage = "  --schedule <s> run under a fault schedule: a built-in name or @<file>\n"}});
  std::string schedule_name;
  asffault::FaultSchedule schedule;
  if (!schedule_arg.empty()) {
    schedule = benchutil::LoadSchedule(argv[0], schedule_arg, &schedule_name);
  }
  benchutil::JsonReport report("fig4_stamp_scalability", opt);
  const uint32_t scale = opt.quick ? 1 : 2;

  struct Series {
    const char* label;
    harness::RuntimeKind runtime;
    asf::AsfVariant variant;
  };
  const Series series[] = {
      {"LLB-8", harness::RuntimeKind::kAsfTm, asf::AsfVariant::Llb8()},
      {"LLB-256", harness::RuntimeKind::kAsfTm, asf::AsfVariant::Llb256()},
      {"LLB-8 w/ L1", harness::RuntimeKind::kAsfTm, asf::AsfVariant::Llb8WithL1()},
      {"LLB-256 w/ L1", harness::RuntimeKind::kAsfTm, asf::AsfVariant::Llb256WithL1()},
      {"STM", harness::RuntimeKind::kTinyStm, asf::AsfVariant::Llb256()},
  };

  std::printf(
      "Figure 4 reproduction: STAMP scalability (execution time in ms; lower "
      "is better)\n\n");
  if (!schedule_name.empty()) {
    std::printf("Fault schedule: %s (seed %llu)\n\n", schedule_name.c_str(),
                static_cast<unsigned long long>(schedule.seed));
  }

  harness::SweepRunner sweep(opt.jobs);
  for (const std::string& app_name : harness::StampAppNames()) {
    for (const Series& s : series) {
      for (uint32_t threads : benchutil::ThreadCounts()) {
        harness::StampConfig cfg;
        cfg.runtime = s.runtime;
        cfg.variant = s.variant;
        cfg.threads = threads;
        cfg.scale = scale;
        cfg.schedule = schedule;
        cfg.collect_latency = true;
        sweep.SubmitStamp(app_name, benchutil::Seeded(cfg, opt));
      }
    }
    // Sequential bar: one thread, uninstrumented (no fault injection — it is
    // the paper's clean baseline).
    harness::StampConfig cfg;
    cfg.runtime = harness::RuntimeKind::kSequential;
    cfg.threads = 1;
    cfg.scale = scale;
    cfg.collect_latency = true;
    sweep.SubmitStamp(app_name, benchutil::Seeded(cfg, opt));
  }
  sweep.Run();

  size_t job = 0;
  for (const std::string& app_name : harness::StampAppNames()) {
    asfcommon::Table table("STAMP: " + app_name);
    std::vector<std::string> header = {"series"};
    for (uint32_t t : benchutil::ThreadCounts()) {
      header.push_back(std::to_string(t) + "thr");
    }
    table.SetHeader(header);
    std::vector<std::pair<std::string, asfobs::LatencyStats>> lat;
    uint64_t app_injected = 0;
    for (const Series& s : series) {
      std::vector<std::string> row = {s.label};
      asfobs::LatencyStats merged;
      for (uint32_t threads : benchutil::ThreadCounts()) {
        const harness::StampResult& r = sweep.stamp(job++);
        if (!r.validation.empty()) {
          std::fprintf(stderr, "VALIDATION FAILED (%s, %s, %u thr): %s\n", app_name.c_str(),
                       s.label, threads, r.validation.c_str());
          return 1;
        }
        row.push_back(asfcommon::Table::Num(r.exec_ms, 3));
        merged.Merge(r.latency);
        app_injected += r.total_injected;
      }
      table.AddRow(row);
      lat.emplace_back(s.label, merged);
      report.AddLatency(app_name + "/" + s.label, merged);
    }
    const harness::StampResult& seq = sweep.stamp(job++);
    table.AddRow({"Sequential (1thr)", asfcommon::Table::Num(seq.exec_ms, 3)});
    lat.emplace_back("Sequential", seq.latency);
    report.AddLatency(app_name + "/Sequential", seq.latency);
    report.Print(table);

    asfcommon::Table ltab =
        benchutil::LatencyTable("STAMP: " + app_name + " [latency]", lat);
    report.Print(ltab);
    if (!schedule_name.empty()) {
      std::printf("Injected faults (%s, all series/threads): %llu\n\n", app_name.c_str(),
                  static_cast<unsigned long long>(app_injected));
    }
  }
  return report.Write() ? 0 : 1;
}
