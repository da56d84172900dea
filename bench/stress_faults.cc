// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Randomized fault-injection stress harness (docs/ROBUSTNESS.md): runs the
// IntegerSet workload on each TM runtime under scripted fault schedules
// (src/fault) and checks the invariants that must survive any fault mix —
// set membership conservation, attempts = commits + aborts, and forward
// progress (the watchdog must not fire under the default contention
// policies). With --verify-replay every configuration runs twice and the
// replay-comparable digests must match byte for byte (deterministic fault
// injection).
//
//   usage: stress_faults [--quick] [--json <path>] [--seed <n>] [--jobs <n>]
//                        [--schedule <name|@file>] [--runtime <name>]
//                        [--policy <spec>] [--verify-replay]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fault/fault_schedule.h"
#include "src/harness/stress.h"
#include "src/harness/sweep.h"

namespace {

using asfcommon::AbortCause;
using asfcommon::Table;
using asffault::FaultSchedule;
using harness::RuntimeKind;

struct StressOptions {
  benchutil::Options base;
  std::string schedule;  // Built-in name or @file; empty = all built-ins.
  std::string runtime;   // Runtime filter; empty = all policy-driven ones.
  std::string policy;    // Contention-policy spec; empty = runtime default.
  bool verify_replay = false;
};

StressOptions ParseArgs(int argc, char** argv) {
  StressOptions opt;
  opt.base = benchutil::ParseArgs(
      argc, argv,
      {{.name = "--schedule",
        .operand = &opt.schedule,
        .usage = "  --schedule <s>  fault schedule: a built-in name or @<file>\n"
                 "                  (built-ins: none, interrupt-heavy, capacity-heavy,\n"
                 "                  adversarial-contention; default: all built-ins)\n"},
       {.name = "--runtime",
        .operand = &opt.runtime,
        .usage = "  --runtime <r>   asf-tm | tiny-stm | phased-tm | lock-elision\n"
                 "                  (default: all four)\n"},
       {.name = "--policy",
        .operand = &opt.policy,
        .usage = "  --policy <spec> contention policy: exp-backoff[:base=,cap=,retries=,\n"
                 "                  capacity-serial=] or no-backoff\n"},
       {.name = "--verify-replay",
        .on = &opt.verify_replay,
        .usage = "  --verify-replay run every configuration twice and require\n"
                 "                  byte-identical digests\n"}});
  return opt;
}

struct NamedSchedule {
  std::string name;
  FaultSchedule schedule;
};

std::vector<NamedSchedule> LoadSchedules(const char* prog, const std::string& arg) {
  std::vector<NamedSchedule> out;
  if (arg.empty()) {
    for (const std::string& name : FaultSchedule::BuiltinNames()) {
      NamedSchedule ns;
      ns.name = name;
      ASF_CHECK(FaultSchedule::Lookup(name, &ns.schedule));
      out.push_back(std::move(ns));
    }
    return out;
  }
  NamedSchedule ns;
  ns.schedule = benchutil::LoadSchedule(prog, arg, &ns.name);
  out.push_back(std::move(ns));
  return out;
}

struct NamedRuntime {
  RuntimeKind kind;
  const char* flag;
};

std::vector<NamedRuntime> LoadRuntimes(const char* prog, const std::string& arg) {
  static const NamedRuntime kAll[] = {
      {RuntimeKind::kAsfTm, "asf-tm"},
      {RuntimeKind::kTinyStm, "tiny-stm"},
      {RuntimeKind::kPhasedTm, "phased-tm"},
      {RuntimeKind::kLockElision, "lock-elision"},
  };
  std::vector<NamedRuntime> out;
  for (const NamedRuntime& r : kAll) {
    if (arg.empty() || arg == r.flag) {
      out.push_back(r);
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "%s: unknown runtime '%s'\n", prog, arg.c_str());
    std::exit(2);
  }
  return out;
}

std::string TopInjectedCause(const harness::StressResult& r) {
  size_t best = 0;
  for (size_t c = 1; c < r.injected.size(); ++c) {
    if (r.injected[c] > r.injected[best]) {
      best = c;
    }
  }
  if (best == 0 || r.injected[best] == 0) {
    return "-";
  }
  return std::string(asfcommon::AbortCauseName(static_cast<AbortCause>(best))) + " (" +
         Table::Int(static_cast<long long>(r.injected[best])) + ")";
}

}  // namespace

int main(int argc, char** argv) {
  const StressOptions opt = ParseArgs(argc, argv);
  benchutil::JsonReport report("stress_faults", opt.base);
  const uint64_t seed = opt.base.seed != 0 ? opt.base.seed : 1;

  std::vector<NamedSchedule> schedules = LoadSchedules(argv[0], opt.schedule);
  std::vector<NamedRuntime> runtimes = LoadRuntimes(argv[0], opt.runtime);

  // Every (schedule, runtime) cell — and the replay re-run, when asked for —
  // is an independent simulation; fan them all out, then format in order.
  harness::SweepRunner sweep(opt.base.jobs);
  for (const NamedSchedule& ns : schedules) {
    for (const NamedRuntime& nr : runtimes) {
      harness::StressConfig sc;
      sc.intset.structure = "list";
      sc.intset.key_range = opt.base.quick ? 128 : 512;
      sc.intset.update_pct = 20;
      sc.intset.threads = opt.base.quick ? 4 : 8;
      sc.intset.ops_per_thread = opt.base.quick ? 250 : 2000;
      sc.intset.runtime = nr.kind;
      sc.intset.seed = seed;
      sc.intset.contention_policy = opt.policy;
      sc.intset.collect_latency = true;
      sc.schedule = ns.schedule;
      sweep.SubmitStress(sc);
      if (opt.verify_replay) {
        sweep.SubmitStress(sc);  // Identical config: digests must match.
      }
    }
  }
  sweep.Run();

  bool failed = false;
  size_t job = 0;
  for (const NamedSchedule& ns : schedules) {
    Table table("Fault stress: " + ns.name + " (schedule seed " +
                Table::Int(static_cast<long long>(ns.schedule.seed)) + ")");
    table.SetHeader({"runtime", "commits", "attempts", "aborts", "abort rate", "injected",
                     "top injected cause", "watchdog", "invariants"});
    std::vector<std::pair<std::string, asfobs::LatencyStats>> lat;
    for (const NamedRuntime& nr : runtimes) {
      const harness::StressResult& r = sweep.stress(job++);
      lat.emplace_back(nr.flag, r.intset.latency);
      report.AddLatency(ns.name + "/" + nr.flag, r.intset.latency);
      report.AddHeatmap(ns.name + "/" + nr.flag, r.intset.heatmap);
      report.AddProgress(ns.name + "/" + nr.flag, r.progress);
      std::string replay = "-";
      if (opt.verify_replay) {
        const harness::StressResult& r2 = sweep.stress(job++);
        replay = r.Digest() == r2.Digest() ? "replay ok" : "REPLAY MISMATCH";
        if (r.Digest() != r2.Digest()) {
          failed = true;
          std::fprintf(stderr, "replay mismatch (%s / %s):\n  first:  %s\n  second: %s\n",
                       ns.name.c_str(), nr.flag, r.Digest().c_str(), r2.Digest().c_str());
        }
      }
      const asftm::TxStats& tm = r.intset.tm;
      bool ok = r.invariant_violation.empty();
      if (!ok) {
        failed = true;
        std::fprintf(stderr, "invariant violation (%s / %s): %s\n", ns.name.c_str(), nr.flag,
                     r.invariant_violation.c_str());
      }
      if (r.watchdog_fired) {
        failed = true;
        std::fprintf(stderr, "watchdog fired (%s / %s): %s\n", ns.name.c_str(), nr.flag,
                     r.watchdog_diagnosis.c_str());
      }
      std::string invariants = ok ? "ok" : "VIOLATED";
      if (opt.verify_replay) {
        invariants += ", " + replay;
      }
      table.AddRow({nr.flag, Table::Int(static_cast<long long>(tm.Commits())),
                    Table::Int(static_cast<long long>(tm.TotalAttempts())),
                    Table::Int(static_cast<long long>(tm.TotalAborts())),
                    Table::Num(tm.AbortRatePercent(), 2) + " %",
                    Table::Int(static_cast<long long>(r.total_injected)), TopInjectedCause(r),
                    r.watchdog_fired ? r.watchdog_diagnosis.c_str() : "quiet", invariants});
    }
    report.Print(table);

    // Tail-latency view of the same cells: injected faults surface as
    // wasted-cycle ratio and stretched p99/p999.
    Table ltab = benchutil::LatencyTable("Fault stress: " + ns.name + " [latency]", lat);
    report.Print(ltab);
  }

  if (!report.Write()) {
    return 1;
  }
  if (failed) {
    std::fprintf(stderr, "FAILED: fault-injection invariants violated.\n");
    return 1;
  }
  std::printf("All fault-injection invariants held.\n");
  return 0;
}
