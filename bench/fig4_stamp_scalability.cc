// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Reproduces Figure 4: scalability of the STAMP applications with the four
// ASF implementation variants, TinySTM, and the sequential (no-TM) baseline,
// over thread counts {1, 2, 4, 8}. Reported metric: execution time of the
// parallel region in milliseconds at the simulated 2.2 GHz (lower is
// better); the "Sequential" row is the single-threaded uninstrumented run
// (the paper's horizontal bar).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/fault/fault_schedule.h"
#include "src/harness/stamp_driver.h"
#include "src/harness/sweep.h"

namespace {

// Extracts "--schedule <name|@file>" before the shared strict parser sees
// the remaining flags, and resolves it to a fault schedule (same syntax as
// stress_faults: a built-in name or @<file> with the DSL of src/fault).
asffault::FaultSchedule ExtractSchedule(int* argc, char** argv, std::string* name) {
  asffault::FaultSchedule schedule;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--schedule") != 0) {
      continue;
    }
    if (i + 1 >= *argc) {
      std::fprintf(stderr, "%s: --schedule requires a <name|@file> operand\n", argv[0]);
      std::exit(2);
    }
    const std::string arg = argv[i + 1];
    if (!arg.empty() && arg[0] == '@') {
      std::string text;
      std::string error;
      if (!asfobs::ReadTextFile(arg.substr(1), &text, &error) ||
          !asffault::FaultSchedule::Parse(text, &schedule, &error)) {
        std::fprintf(stderr, "%s: %s: %s\n", argv[0], arg.c_str() + 1, error.c_str());
        std::exit(2);
      }
      *name = arg.substr(1);
    } else {
      if (!asffault::FaultSchedule::Lookup(arg, &schedule)) {
        std::fprintf(stderr, "%s: unknown built-in schedule '%s'\n", argv[0], arg.c_str());
        std::exit(2);
      }
      *name = arg;
    }
    // Remove the two consumed arguments for the shared parser.
    for (int j = i; j + 2 < *argc; ++j) {
      argv[j] = argv[j + 2];
    }
    *argc -= 2;
    return schedule;
  }
  return schedule;
}

}  // namespace

int main(int argc, char** argv) {
  std::string schedule_name;
  asffault::FaultSchedule schedule = ExtractSchedule(&argc, argv, &schedule_name);
  benchutil::Options opt = benchutil::ParseArgs(argc, argv);
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
        if (opt.seed != 0) {
          cfg.seed = opt.seed;
        }
        sweep.SubmitStamp(app_name, cfg);
      }
    }
    // Sequential bar: one thread, uninstrumented (no fault injection — it is
    // the paper's clean baseline).
    harness::StampConfig cfg;
    cfg.runtime = harness::RuntimeKind::kSequential;
    cfg.threads = 1;
    cfg.scale = scale;
    cfg.collect_latency = true;
    if (opt.seed != 0) {
      cfg.seed = opt.seed;
    }
    sweep.SubmitStamp(app_name, cfg);
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
    table.Print();
    if (opt.csv) {
      table.PrintCsv(stdout);
    }
    report.Add(table);

    asfcommon::Table ltab =
        benchutil::LatencyTable("STAMP: " + app_name + " [latency]", lat);
    ltab.Print();
    if (opt.csv) {
      ltab.PrintCsv(stdout);
    }
    report.Add(ltab);
    if (!schedule_name.empty()) {
      std::printf("Injected faults (%s, all series/threads): %llu\n\n", app_name.c_str(),
                  static_cast<unsigned long long>(app_injected));
    }
  }
  return report.Write() ? 0 : 1;
}
