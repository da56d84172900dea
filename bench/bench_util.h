// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Shared helpers for the per-figure benchmark harnesses: strict command-line
// parsing and the machine-readable JSON run report behind --json.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "src/common/table.h"
#include "src/fault/fault_schedule.h"
#include "src/fault/watchdog.h"
#include "src/harness/sweep.h"
#include "src/obs/export.h"
#include "src/obs/heatmap.h"
#include "src/obs/json.h"
#include "src/obs/latency.h"

namespace benchutil {

struct Options {
  bool quick = false;        // Reduced op counts for smoke runs.
  std::string json_path;     // Write a JSON run report here (empty = off).
  uint64_t seed = 0;         // Override the benchmark's base seed (0 = keep).
  uint32_t jobs = 0;         // Host-parallel sweep jobs (0 = hardware_concurrency).
};

// Largest --jobs operand the parser accepts.
constexpr uint32_t kMaxJobs = 1024;

// Resolves a 0 ("auto") job-count operand to harness::DefaultJobs(),
// clamped to kMaxJobs so an odd topology report cannot exceed the flag's
// documented range. Every bench resolves at parse time, so the JSON report
// header always records the concrete fan-out that actually ran.
inline uint32_t ResolveAutoJobs(uint32_t requested) {
  if (requested != 0) {
    return requested;
  }
  const uint32_t n = harness::DefaultJobs();
  return n > kMaxJobs ? kMaxJobs : n;
}

// A flag of one bench only, parsed beside the shared ones: with `operand`
// set it takes an operand and stores it there, otherwise it is a switch that
// sets `*on`. `usage` is its line(s) for --help.
struct OwnFlag {
  const char* name;
  std::string* operand = nullptr;
  bool* on = nullptr;
  const char* usage = "";
};

inline void PrintUsage(const char* prog, std::FILE* out, const std::vector<OwnFlag>& own) {
  std::fprintf(out,
               "usage: %s [--quick] [--json <path>] [--seed <n>] [--jobs <n>]%s\n"
               "  --quick        reduced op counts (smoke runs)\n"
               "  --json <path>  write a machine-readable JSON run report\n"
               "  --seed <n>     override the benchmark's base RNG seed\n"
               "  --jobs <n>     host threads for the sweep (0 or omitted = all cores;\n"
               "                 results are identical for every job count)\n",
               prog, own.empty() ? "" : " [options]");
  for (const OwnFlag& f : own) {
    std::fputs(f.usage, out);
  }
}

// Strict parser of the shared flags plus the bench's `own` ones: unknown
// flags and missing operands are errors (exit 2), so a typo cannot silently
// run the wrong configuration.
inline Options ParseArgs(int argc, char** argv, const std::vector<OwnFlag>& own = {}) {
  Options opt;
  auto operand = [&](int& i, const char* what) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s requires %s operand\n", argv[0], argv[i], what);
      PrintUsage(argv[0], stderr, own);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const auto own_flag = std::find_if(own.begin(), own.end(), [&](const OwnFlag& f) {
      return std::strcmp(argv[i], f.name) == 0;
    });
    if (own_flag != own.end()) {
      if (own_flag->operand != nullptr) {
        *own_flag->operand = operand(i, "an");
      } else {
        *own_flag->on = true;
      }
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json_path = operand(i, "a path");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* s = operand(i, "a numeric");
      char* end = nullptr;
      opt.seed = std::strtoull(s, &end, 10);
      if (end == s || *end != '\0' || opt.seed == 0) {
        std::fprintf(stderr, "%s: --seed operand must be a positive integer, got '%s'\n",
                     argv[0], s);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      const char* s = operand(i, "a numeric");
      char* end = nullptr;
      unsigned long long jobs = std::strtoull(s, &end, 10);
      if (end == s || *end != '\0' || jobs > kMaxJobs) {
        std::fprintf(stderr, "%s: --jobs operand must be an integer in [0, 1024], got '%s'\n",
                     argv[0], s);
        std::exit(2);
      }
      opt.jobs = static_cast<uint32_t>(jobs);
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(argv[0], stdout, own);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
      PrintUsage(argv[0], stderr, own);
      std::exit(2);
    }
  }
  // Resolve the "auto" sweep fan-out here too, so the JSON report header
  // carries the concrete value (the SweepRunner would resolve 0 the same
  // way; parse-time resolution just makes the report self-describing).
  opt.jobs = ResolveAutoJobs(opt.jobs);
  return opt;
}

// Resolves a --schedule operand — a built-in name or @<file> in the DSL of
// src/fault — to its schedule and display name (exit 2 on error).
inline asffault::FaultSchedule LoadSchedule(const char* prog, const std::string& arg,
                                            std::string* name) {
  asffault::FaultSchedule schedule;
  if (!arg.empty() && arg[0] == '@') {
    std::string text;
    std::string error;
    if (!asfobs::ReadTextFile(arg.substr(1), &text, &error) ||
        !asffault::FaultSchedule::Parse(text, &schedule, &error)) {
      std::fprintf(stderr, "%s: %s: %s\n", prog, arg.c_str() + 1, error.c_str());
      std::exit(2);
    }
    *name = arg.substr(1);
  } else {
    if (!asffault::FaultSchedule::Lookup(arg, &schedule)) {
      std::fprintf(stderr, "%s: unknown built-in schedule '%s'\n", prog, arg.c_str());
      std::exit(2);
    }
    *name = arg;
  }
  return schedule;
}

// Applies --seed to a run configuration (harness::IntsetConfig or
// StampConfig); without the flag the configuration keeps its base seed.
template <typename Config>
Config Seeded(Config cfg, const Options& opt) {
  if (opt.seed != 0) {
    cfg.seed = opt.seed;
  }
  return cfg;
}

// Host CPU topology as visible to this process. `cpus` is the hardware
// thread count; `affinity_cpus` is how many of them the scheduler lets us
// run on (container/cgroup/taskset pinning) — 0 where the platform cannot
// say. Throughput baselines are only comparable between hosts with the same
// numbers, so every bench JSON report carries them in its header.
struct HostInfo {
  uint32_t cpus = 0;
  uint32_t affinity_cpus = 0;
};

inline HostInfo QueryHostInfo() {
  HostInfo info;
  info.cpus = std::thread::hardware_concurrency();
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    info.affinity_cpus = static_cast<uint32_t>(CPU_COUNT(&set));
  }
#endif
  return info;
}

// Peak resident memory of this process in MB (VmHWM in /proc/self/status,
// which, unlike getrusage's ru_maxrss, does not survive execve); 0 where the
// platform cannot say.
inline double PeakRssMb() {
  std::string status;
  std::string error;
  if (!asfobs::ReadTextFile("/proc/self/status", &status, &error)) {
    return 0.0;
  }
  const size_t pos = status.find("VmHWM:");
  if (pos == std::string::npos) {
    return 0.0;
  }
  return std::strtod(status.c_str() + pos + 6, nullptr) / 1024.0;  // In KiB.
}

inline const std::vector<uint32_t>& ThreadCounts() {
  static const std::vector<uint32_t> kThreads = {1, 2, 4, 8};
  return kThreads;
}

// Renders one latency row per series: block count, tail percentiles, mean,
// and the wasted-cycle ratio. The same (label, stats) pairs feed the JSON
// report's structured "latency" section via JsonReport::AddLatency.
inline asfcommon::Table LatencyTable(
    const std::string& title,
    const std::vector<std::pair<std::string, asfobs::LatencyStats>>& series) {
  asfcommon::Table t(title);
  t.SetHeader({"series", "blocks", "p50", "p90", "p99", "p999", "mean", "wasted %"});
  for (const auto& [label, s] : series) {
    t.AddRow({label, asfcommon::Table::Int(static_cast<long long>(s.count)),
              asfcommon::Table::Int(static_cast<long long>(s.Percentile(50.0))),
              asfcommon::Table::Int(static_cast<long long>(s.Percentile(90.0))),
              asfcommon::Table::Int(static_cast<long long>(s.Percentile(99.0))),
              asfcommon::Table::Int(static_cast<long long>(s.Percentile(99.9))),
              asfcommon::Table::Num(s.Mean(), 1),
              asfcommon::Table::Num(100.0 * s.WastedRatio(), 1) + "%"});
  }
  return t;
}

// Collects the tables a benchmark printed and writes them as one JSON
// document: {"benchmark", "quick", "seed", "tables": [{title, header,
// rows}...]}. Rows are kept as strings, exactly as printed, so the report is
// byte-comparable across runs; the host header's peak_rss_mb and wall_s vary
// from run to run.
class JsonReport {
 public:
  // Every bench builds its report right after parsing its arguments, so the
  // header's host wall seconds span the whole run.
  JsonReport(std::string benchmark, const Options& opt)
      : benchmark_(std::move(benchmark)), opt_(opt), start_(std::chrono::steady_clock::now()) {}

  void Add(const asfcommon::Table& t) {
    if (opt_.json_path.empty()) {
      return;
    }
    tables_.push_back(t);
  }
  // Prints `t` to stdout and adds it to the report.
  void Print(const asfcommon::Table& t) {
    t.Print();
    Add(t);
  }

  // Structured latency / heatmap sections (beyond the string-cell tables):
  // one entry per series label, validated by tools/json_check.
  void AddLatency(const std::string& label, const asfobs::LatencyStats& s) {
    if (opt_.json_path.empty()) {
      return;
    }
    latency_.emplace_back(label, s);
  }
  void AddHeatmap(const std::string& label, const asfobs::HeatmapStats& s) {
    if (opt_.json_path.empty()) {
      return;
    }
    heatmap_.emplace_back(label, s);
  }
  // Watchdog progress accounting (one entry per run cell): verdict,
  // per-core commit counts and abort streaks, starved cores, longest
  // no-commit window. tools/json_check validates the shape; tools/bench_diff
  // fails a run whose verdict degrades or that starves a thread the baseline
  // kept fed.
  void AddProgress(const std::string& label, const asffault::Watchdog::ProgressReport& p) {
    if (opt_.json_path.empty()) {
      return;
    }
    progress_.emplace_back(label, p);
  }

  // Writes the report if --json was given. On I/O failure prints the error
  // and returns false.
  bool Write() const {
    if (opt_.json_path.empty()) {
      return true;
    }
    std::string out;
    asfobs::JsonWriter w(&out, /*pretty=*/true);
    w.BeginObject();
    w.KV("benchmark", benchmark_);
    w.KV("quick", opt_.quick);
    w.KV("seed", opt_.seed);
    // Resolved sweep fan-out (0 operands resolve to the host's core count at
    // parse time), so reports from different hosts stay interpretable.
    w.KV("jobs", static_cast<uint64_t>(opt_.jobs));
    // Host header: throughput rows are only comparable across machines with
    // the same visible-CPU counts (see QueryHostInfo). Peak RSS and wall
    // seconds make every report a data point of the run's host cost.
    const HostInfo host = QueryHostInfo();
    w.Key("host");
    w.BeginObject();
    w.KV("cpus", static_cast<uint64_t>(host.cpus));
    w.KV("affinity_cpus", static_cast<uint64_t>(host.affinity_cpus));
    w.KV("peak_rss_mb", PeakRssMb());
    w.KV("wall_s",
         std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count());
    w.EndObject();
    w.Key("tables");
    w.BeginArray();
    for (const asfcommon::Table& t : tables_) {
      w.BeginObject();
      w.KV("title", t.title());
      w.Key("header");
      w.BeginArray();
      for (const std::string& h : t.header()) {
        w.String(h);
      }
      w.EndArray();
      w.Key("rows");
      w.BeginArray();
      for (const auto& row : t.rows()) {
        w.BeginArray();
        for (const std::string& cell : row) {
          w.String(cell);
        }
        w.EndArray();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    if (!latency_.empty()) {
      w.Key("latency");
      w.BeginObject();
      for (const auto& [label, s] : latency_) {
        w.Key(label);
        asfobs::WriteLatencyJson(w, s);
      }
      w.EndObject();
    }
    if (!heatmap_.empty()) {
      w.Key("heatmap");
      w.BeginObject();
      for (const auto& [label, s] : heatmap_) {
        w.Key(label);
        asfobs::WriteHeatmapJson(w, s, /*top_k=*/8);
      }
      w.EndObject();
    }
    if (!progress_.empty()) {
      w.Key("progress");
      w.BeginObject();
      for (const auto& [label, p] : progress_) {
        w.Key(label);
        w.BeginObject();
        w.KV("verdict", asffault::Watchdog::VerdictName(p.verdict));
        w.KV("max_commit_gap_cycles", p.max_commit_gap_cycles);
        w.Key("commits");
        w.BeginArray();
        for (uint64_t c : p.commits) {
          w.UInt(c);
        }
        w.EndArray();
        w.Key("max_abort_streak");
        w.BeginArray();
        for (uint64_t c : p.max_abort_streak) {
          w.UInt(c);
        }
        w.EndArray();
        w.Key("starved_cores");
        w.BeginArray();
        for (uint32_t c : p.starved_cores) {
          w.UInt(c);
        }
        w.EndArray();
        w.EndObject();
      }
      w.EndObject();
    }
    w.EndObject();
    out.push_back('\n');
    std::string error;
    if (!asfobs::WriteTextFile(opt_.json_path, out, &error)) {
      std::fprintf(stderr, "json report: %s\n", error.c_str());
      return false;
    }
    return true;
  }

 private:
  std::string benchmark_;
  Options opt_;
  std::chrono::steady_clock::time_point start_;
  std::vector<asfcommon::Table> tables_;
  std::vector<std::pair<std::string, asfobs::LatencyStats>> latency_;
  std::vector<std::pair<std::string, asfobs::HeatmapStats>> heatmap_;
  std::vector<std::pair<std::string, asffault::Watchdog::ProgressReport>> progress_;
};

}  // namespace benchutil

#endif  // BENCH_BENCH_UTIL_H_
