// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// asf_explore — command-line experiment runner for the ASF TM stack.
//
// Runs a single configuration of either workload family and prints the full
// measurement (throughput / execution time, abort breakdown, cycle
// categories). This is the downstream user's entry point for exploring the
// design space without writing code.
//
// Examples:
//   asf_explore --workload intset --structure rb --range 8192 --threads 8
//   asf_explore --workload intset --structure list-er --variant llb8
//   asf_explore --workload stamp --app vacation-low --runtime stm --threads 4
//   asf_explore --workload stamp --app labyrinth --variant llb256-l1 --scale 2
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/abort_cause.h"
#include "src/common/defs.h"
#include "src/fault/fault_schedule.h"
#include "src/harness/report.h"
#include "src/litmus/litmus.h"
#include "src/harness/stamp_driver.h"
#include "src/harness/stress.h"
#include "src/harness/sweep.h"
#include "src/obs/export.h"
#include "src/obs/tx_event.h"
#include "src/sim/trace.h"

namespace {

using harness::RuntimeKind;

struct Args {
  std::map<std::string, std::string> kv;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  // The operand of --key as an integer in [lo, hi]; anything else (no
  // digits, trailing characters, out of range) is a usage error (exit 2).
  uint64_t GetInt(const std::string& key, uint64_t fallback, uint64_t lo = 0,
                  uint64_t hi = UINT64_MAX) const {
    auto it = kv.find(key);
    if (it == kv.end()) {
      return fallback;
    }
    const char* s = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const uint64_t v = std::strtoull(s, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(s[0])) || *end != '\0' || errno == ERANGE ||
        v < lo || v > hi) {
      if (hi == UINT64_MAX) {
        std::fprintf(stderr, "asf_explore: --%s needs a non-negative integer, got '%s'\n",
                     key.c_str(), s);
      } else {
        std::fprintf(stderr, "asf_explore: --%s needs an integer in [%llu, %llu], got '%s'\n",
                     key.c_str(), static_cast<unsigned long long>(lo),
                     static_cast<unsigned long long>(hi), s);
      }
      std::exit(2);
    }
    return v;
  }
};

void Usage() {
  std::printf(
      "asf_explore --workload intset|stamp [options]\n"
      "  common:  --runtime asf|stm|seq|lock|phased\n"
      "           --variant llb8|llb256|llb8-l1|llb256-l1|asf1\n"
      "           --threads N (1..8)   --seed N   --no-timer\n"
      "           --reps N       repeat the run N times with seeds seed, seed+1, ...\n"
      "                          and report per-rep plus mean results\n"
      "           --jobs N       host threads for --reps fan-out (default: all cores)\n"
      "           --trace PATH   export a Perfetto trace_event JSON of the measured\n"
      "                          window (open in ui.perfetto.dev; tools/trace_report)\n"
      "           --report PATH  write the run's config+result as JSON\n"
      "  intset:  --structure list|list-er|skip|rb|hash  --range N  --update PCT  --ops N\n"
      "           --policy SPEC  contention policy: exp-backoff[:base=,cap=,retries=,\n"
      "                          capacity-serial=] or no-backoff\n"
      "           --schedule S   run under a fault schedule (built-in name or @file;\n"
      "                          built-ins: none, interrupt-heavy, capacity-heavy,\n"
      "                          adversarial-contention) and report the stress summary\n"
      "  stamp:   --app genome|intruder|kmeans-low|kmeans-high|labyrinth|ssca2|\n"
      "                 vacation-low|vacation-high       --scale N\n"
      "           --schedule S   inject the fault schedule into the STAMP run\n"
      "  litmus:  --litmus NAME|all  enumerate a semantics litmus test over all bounded\n"
      "                          interleavings (docs/ROBUSTNESS.md) instead of a workload;\n"
      "                          runs every runtime unless --runtime is given; honors\n"
      "                          --variant/--seed/--policy. Exits 0 iff every reachable\n"
      "                          outcome is in the allowed set.\n"
      "           --break-rw 1   deliberately break requester-wins for plain loads\n"
      "                          (mutation check: the dirty-read test must then fail)\n");
}

RuntimeKind ParseRuntime(const std::string& s) {
  if (s == "asf") {
    return RuntimeKind::kAsfTm;
  }
  if (s == "stm") {
    return RuntimeKind::kTinyStm;
  }
  if (s == "seq") {
    return RuntimeKind::kSequential;
  }
  if (s == "lock") {
    return RuntimeKind::kGlobalLock;
  }
  if (s == "phased") {
    return RuntimeKind::kPhasedTm;
  }
  if (s == "elision") {
    return RuntimeKind::kLockElision;
  }
  std::fprintf(stderr, "unknown runtime '%s'\n", s.c_str());
  std::exit(2);
}

asf::AsfVariant ParseVariant(const std::string& s) {
  if (s == "llb8") {
    return asf::AsfVariant::Llb8();
  }
  if (s == "llb256") {
    return asf::AsfVariant::Llb256();
  }
  if (s == "llb8-l1") {
    return asf::AsfVariant::Llb8WithL1();
  }
  if (s == "llb256-l1") {
    return asf::AsfVariant::Llb256WithL1();
  }
  if (s == "asf1") {
    // ASF1 proposal revision: LLB-256 with the static protected-set
    // restriction (no dynamic growth after the first memory access).
    return asf::AsfVariant::Asf1Llb256();
  }
  std::fprintf(stderr, "unknown variant '%s'\n", s.c_str());
  std::exit(2);
}

void PrintTmStats(const asftm::TxStats& tm) {
  std::printf("transactions:\n");
  std::printf("  started %lu | commits: hw %lu, serial %lu, stm %lu, seq %lu\n", tm.tx_started,
              tm.hw_commits, tm.serial_commits, tm.stm_commits, tm.seq_commits);
  std::printf("  aborts %lu (rate %.2f%%):", tm.TotalAborts(), tm.AbortRatePercent());
  for (size_t i = 1; i < tm.aborts.size(); ++i) {
    if (tm.aborts[i] != 0) {
      std::printf(" %s=%lu", asfcommon::AbortCauseName(static_cast<asfcommon::AbortCause>(i)),
                  tm.aborts[i]);
    }
  }
  std::printf("\n  backoff cycles %lu\n", tm.backoff_cycles);
}

void PrintBreakdown(const harness::CycleBreakdown& b) {
  std::printf("cycle breakdown:\n");
  for (size_t i = 0; i < b.cycles.size(); ++i) {
    std::printf("  %-16s %12lu\n",
                asfsim::CycleCategoryName(static_cast<asfsim::CycleCategory>(i)), b.cycles[i]);
  }
}

// One-line tail-latency summary for observed runs (docs/OBSERVABILITY.md).
void PrintLatency(const asfobs::LatencyStats& s, const asfobs::HeatmapStats& heat) {
  std::printf("block latency: %lu blocks | p50 %lu | p90 %lu | p99 %lu | p999 %lu cycles | "
              "wasted %.1f%%\n",
              s.count, s.Percentile(50.0), s.Percentile(90.0), s.Percentile(99.0),
              s.Percentile(99.9), 100.0 * s.WastedRatio());
  if (heat.total_edges != 0) {
    std::printf("hot lines: %lu conflict edges on %zu lines; top:", heat.total_edges,
                heat.lines.size());
    for (const asfobs::HotLine& hl : heat.TopK(3)) {
      std::printf(" 0x%lx(%lu)", hl.line << asfcommon::kCacheLineShift, hl.edges);
    }
    std::printf("\n");
  }
}

// Writes the Perfetto trace for one observed run; returns false on I/O error.
bool ExportTrace(const std::string& path, const std::string& benchmark, uint32_t cores,
                 const asfsim::Tracer& tracer, const asfobs::TxEventLog& log) {
  asfobs::PerfettoInput in;
  in.benchmark = benchmark;
  in.num_cores = cores;
  in.mem_events = &tracer.events();
  in.spans = &tracer.spans();
  in.tx_events = &log.events();
  std::string error;
  if (!asfobs::WriteTextFile(path, asfobs::WritePerfettoTrace(in), &error)) {
    std::fprintf(stderr, "trace export: %s\n", error.c_str());
    return false;
  }
  std::printf("trace written to %s (open in ui.perfetto.dev or tools/trace_report)\n",
              path.c_str());
  return true;
}

bool WriteReport(const std::string& path, const std::string& json) {
  std::string error;
  if (!asfobs::WriteTextFile(path, json, &error)) {
    std::fprintf(stderr, "report export: %s\n", error.c_str());
    return false;
  }
  std::printf("report written to %s\n", path.c_str());
  return true;
}

// Resolves --schedule: a built-in name or @<file> (same syntax as
// bench/stress_faults); exits on parse errors.
asffault::FaultSchedule LoadSchedule(const std::string& arg) {
  asffault::FaultSchedule schedule;
  if (arg[0] == '@') {
    std::string text;
    std::string error;
    if (!asfobs::ReadTextFile(arg.substr(1), &text, &error) ||
        !asffault::FaultSchedule::Parse(text, &schedule, &error)) {
      std::fprintf(stderr, "--schedule %s: %s\n", arg.c_str() + 1, error.c_str());
      std::exit(2);
    }
    return schedule;
  }
  if (!asffault::FaultSchedule::Lookup(arg, &schedule)) {
    std::fprintf(stderr, "unknown built-in schedule '%s'\n", arg.c_str());
    std::exit(2);
  }
  return schedule;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool timer = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      Usage();
      return 0;
    }
    if (std::strcmp(argv[i], "--no-timer") == 0) {
      timer = false;
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0 && i + 1 < argc) {
      args.kv[argv[i] + 2] = argv[i + 1];
      ++i;
      continue;
    }
    std::fprintf(stderr, "bad argument '%s'\n", argv[i]);
    Usage();
    return 2;
  }

  // Reject misspelled keys instead of silently falling back to defaults.
  static const char* kKnownKeys[] = {"workload", "runtime", "variant",  "threads",  "seed",
                                     "trace",    "report",  "reps",     "jobs",     "structure",
                                     "range",    "update",  "ops",      "policy",   "schedule",
                                     "app",      "scale",   "litmus",   "break-rw", "prune"};
  for (const auto& [key, value] : args.kv) {
    bool known = false;
    for (const char* k : kKnownKeys) {
      known = known || key == k;
    }
    if (!known) {
      std::fprintf(stderr, "unknown option '--%s'\n", key.c_str());
      Usage();
      return 2;
    }
  }

  std::string workload = args.Get("workload", "intset");
  RuntimeKind runtime = ParseRuntime(args.Get("runtime", "asf"));
  asf::AsfVariant variant = ParseVariant(args.Get("variant", "llb256"));
  uint32_t threads = static_cast<uint32_t>(args.GetInt("threads", 8, 1, asfcommon::kMaxCores));
  uint64_t seed = args.GetInt("seed", 1);

  // Litmus mode: enumerate a semantics test instead of running a workload.
  std::string litmus_arg = args.Get("litmus", "");
  if (!litmus_arg.empty()) {
    std::vector<const litmus::LitmusTest*> tests;
    if (litmus_arg == "all") {
      tests = litmus::AllTests();
    } else {
      const litmus::LitmusTest* t = litmus::FindTest(litmus_arg);
      if (t == nullptr) {
        std::fprintf(stderr, "unknown litmus test '%s'; tests:", litmus_arg.c_str());
        for (const litmus::LitmusTest* known : litmus::AllTests()) {
          std::fprintf(stderr, " %s", known->name().c_str());
        }
        std::fprintf(stderr, " all\n");
        return 2;
      }
      tests.push_back(t);
    }
    std::vector<RuntimeKind> runtimes;
    if (args.kv.count("runtime") != 0) {
      runtimes.push_back(runtime);
    } else {
      runtimes = {RuntimeKind::kAsfTm,      RuntimeKind::kLockElision,
                  RuntimeKind::kPhasedTm,   RuntimeKind::kTinyStm,
                  RuntimeKind::kGlobalLock, RuntimeKind::kSequential};
    }
    bool ok = true;
    for (const litmus::LitmusTest* t : tests) {
      std::printf("%s: %s\n", t->name().c_str(), t->description().c_str());
      for (RuntimeKind rk : runtimes) {
        litmus::LitmusConfig cfg;
        cfg.runtime = rk;
        cfg.variant = variant;
        cfg.seed = seed;
        cfg.policy = args.Get("policy", "");
        cfg.break_requester_wins = args.GetInt("break-rw", 0, 0, 1) != 0;
        cfg.prune = args.GetInt("prune", 1, 0, 1) != 0;
        litmus::LitmusResult r = litmus::RunLitmus(*t, cfg);
        std::printf("  %-14s %4lu interleavings | %4lu decision points | %4lu pruned | "
                    "%4lu bounded%s\n",
                    r.runtime.c_str(), r.interleavings, r.decision_points, r.pruned_branches,
                    r.bounded_branches, r.hit_cap ? " | CAP HIT" : "");
        for (const auto& [outcome, count] : r.outcomes) {
          std::printf("    %-28s x%lu\n", outcome.c_str(), count);
        }
        std::printf("    allowed: %s\n", t->AllowedSummary(rk, variant).c_str());
        for (const std::string& v : r.violations) {
          std::printf("    VIOLATION: %s\n", v.c_str());
        }
        ok = ok && r.ok();
      }
    }
    std::printf("litmus: %s\n", ok ? "all outcomes within allowed sets" : "VIOLATIONS FOUND");
    return ok ? 0 : 1;
  }
  std::string trace_path = args.Get("trace", "");
  std::string report_path = args.Get("report", "");
  std::string policy = args.Get("policy", "");
  std::string schedule_arg = args.Get("schedule", "");
  uint32_t jobs = static_cast<uint32_t>(args.GetInt("jobs", 0, 0, 1024));
  uint64_t reps = args.GetInt("reps", 1, 1, 1024);
  if (reps > 1 && (!trace_path.empty() || !report_path.empty())) {
    std::fprintf(stderr, "--trace/--report export a single run; use --reps 1\n");
    return 2;
  }

  // Observers are only attached when an export was requested; without them
  // the run is byte-identical to an unobserved one.
  asfsim::Tracer tracer;
  asfobs::TxEventLog log;
  harness::ObsHooks obs;
  if (!trace_path.empty()) {
    obs.tracer = &tracer;
    obs.tx_sink = &log;
  }

  if (workload == "intset") {
    harness::IntsetConfig cfg;
    cfg.structure = args.Get("structure", "rb");
    cfg.key_range = args.GetInt("range", 1024);
    cfg.update_pct = static_cast<uint32_t>(args.GetInt("update", 20, 0, 100));
    cfg.threads = threads;
    cfg.ops_per_thread = args.GetInt("ops", 2000);
    cfg.runtime = runtime;
    cfg.variant = variant;
    cfg.seed = seed;
    cfg.timer_interrupts = timer;
    cfg.contention_policy = policy;

    if (!schedule_arg.empty()) {
      // Fault-schedule mode: the run goes through the stress harness, which
      // owns the observer chain (watchdog), so per-run exports are off.
      if (!trace_path.empty() || !report_path.empty()) {
        std::fprintf(stderr, "--trace/--report cannot be combined with --schedule\n");
        return 2;
      }
      harness::StressConfig sc;
      sc.intset = cfg;
      sc.schedule = LoadSchedule(schedule_arg);
      harness::SweepRunner sweep(jobs);
      for (uint64_t rep = 0; rep < reps; ++rep) {
        sc.intset.seed = seed + rep;
        sweep.SubmitStress(sc);
      }
      sweep.Run();
      std::printf("intset %s | range %lu | %u%% updates | %u threads | %s | %s | schedule %s\n",
                  cfg.structure.c_str(), cfg.key_range, cfg.update_pct, threads,
                  harness::RuntimeKindName(runtime), variant.Name().c_str(),
                  schedule_arg.c_str());
      bool ok = true;
      for (uint64_t rep = 0; rep < reps; ++rep) {
        const harness::StressResult& r = sweep.stress(rep);
        bool rep_ok = r.invariant_violation.empty() && !r.watchdog_fired;
        ok = ok && rep_ok;
        std::printf("rep %lu (seed %lu): commits %lu | aborts %lu | injected %lu | "
                    "watchdog %s | invariants %s\n",
                    rep, seed + rep, r.intset.tm.Commits(), r.intset.tm.TotalAborts(),
                    r.total_injected, r.watchdog_fired ? r.watchdog_diagnosis.c_str() : "quiet",
                    r.invariant_violation.empty() ? "ok" : r.invariant_violation.c_str());
        if (reps == 1) {
          PrintTmStats(r.intset.tm);
          PrintBreakdown(r.intset.breakdown);
        }
      }
      return ok ? 0 : 1;
    }

    if (reps > 1) {
      harness::SweepRunner sweep(jobs);
      for (uint64_t rep = 0; rep < reps; ++rep) {
        harness::IntsetConfig rep_cfg = cfg;
        rep_cfg.seed = seed + rep;
        sweep.SubmitIntset(rep_cfg);
      }
      sweep.Run();
      std::printf("intset %s | range %lu | %u%% updates | %u threads | %s | %s | %lu reps\n",
                  cfg.structure.c_str(), cfg.key_range, cfg.update_pct, threads,
                  harness::RuntimeKindName(runtime), variant.Name().c_str(), reps);
      double sum = 0.0;
      for (uint64_t rep = 0; rep < reps; ++rep) {
        const harness::IntsetResult& r = sweep.intset(rep);
        sum += r.tx_per_us;
        std::printf("rep %lu (seed %lu): %.2f tx/us (%lu tx in %lu cycles, abort rate %.2f%%)\n",
                    rep, seed + rep, r.tx_per_us, r.committed_tx, r.measure_cycles,
                    r.tm.AbortRatePercent());
      }
      std::printf("mean throughput: %.2f tx/us over %lu reps\n", sum / static_cast<double>(reps),
                  reps);
      return 0;
    }

    cfg.obs = obs;
    // Exports carry the latency/heatmap sections; the extra recorders are
    // host-side, so the simulated run is unchanged.
    cfg.collect_latency = !trace_path.empty() || !report_path.empty();
    harness::IntsetResult r = harness::RunIntset(cfg);
    std::printf("intset %s | range %lu | %u%% updates | %u threads | %s | %s\n",
                cfg.structure.c_str(), cfg.key_range, cfg.update_pct, threads,
                harness::RuntimeKindName(runtime), variant.Name().c_str());
    std::printf("throughput: %.2f tx/us (%lu tx in %lu cycles)\n", r.tx_per_us, r.committed_tx,
                r.measure_cycles);
    PrintTmStats(r.tm);
    PrintBreakdown(r.breakdown);
    if (cfg.collect_latency) {
      PrintLatency(r.latency, r.heatmap);
    }
    bool ok = true;
    if (!trace_path.empty()) {
      ok = ExportTrace(trace_path, "intset-" + cfg.structure + "-" + variant.Name(), cfg.threads,
                       tracer, log) &&
           ok;
    }
    if (!report_path.empty()) {
      ok = WriteReport(report_path, harness::IntsetReportJson(cfg, r)) && ok;
    }
    return ok ? 0 : 1;
  }

  if (workload == "stamp") {
    if (!policy.empty()) {
      std::fprintf(stderr, "--policy applies to the intset workload only\n");
      return 2;
    }
    std::string app_name = args.Get("app", "genome");
    auto app = harness::MakeStampApp(app_name);
    harness::StampConfig cfg;
    cfg.runtime = runtime;
    cfg.variant = variant;
    cfg.threads = threads;
    cfg.scale = static_cast<uint32_t>(args.GetInt("scale", 1, 1, UINT32_MAX));
    cfg.seed = seed;
    cfg.timer_interrupts = timer;
    if (!schedule_arg.empty()) {
      // The STAMP driver injects exactly like the intset stress harness
      // (docs/ROBUSTNESS.md): per-access strikes, reported as kFaultInjected.
      cfg.schedule = LoadSchedule(schedule_arg);
    }
    if (reps > 1) {
      harness::SweepRunner sweep(jobs);
      for (uint64_t rep = 0; rep < reps; ++rep) {
        harness::StampConfig rep_cfg = cfg;
        rep_cfg.seed = seed + rep;
        sweep.SubmitStamp(app_name, rep_cfg);
      }
      sweep.Run();
      std::printf("stamp %s | scale %u | %u threads | %s | %s | %lu reps\n", app_name.c_str(),
                  cfg.scale, threads, harness::RuntimeKindName(runtime), variant.Name().c_str(),
                  reps);
      double sum = 0.0;
      bool ok = true;
      for (uint64_t rep = 0; rep < reps; ++rep) {
        const harness::StampResult& r = sweep.stamp(rep);
        ok = ok && r.validation.empty();
        sum += r.exec_ms;
        std::printf("rep %lu (seed %lu): %.3f ms (%lu cycles); validation: %s\n", rep, seed + rep,
                    r.exec_ms, r.exec_cycles, r.validation.empty() ? "OK" : r.validation.c_str());
      }
      std::printf("mean execution time: %.3f ms over %lu reps\n",
                  sum / static_cast<double>(reps), reps);
      return ok ? 0 : 1;
    }

    cfg.obs = obs;
    cfg.collect_latency = !trace_path.empty() || !report_path.empty();
    harness::StampResult r = harness::RunStamp(*app, cfg);
    std::printf("stamp %s | scale %u | %u threads | %s | %s%s%s\n", app_name.c_str(), cfg.scale,
                threads, harness::RuntimeKindName(runtime), variant.Name().c_str(),
                schedule_arg.empty() ? "" : " | schedule ",
                schedule_arg.empty() ? "" : schedule_arg.c_str());
    std::printf("execution time: %.3f ms (%lu cycles); validation: %s\n", r.exec_ms,
                r.exec_cycles, r.validation.empty() ? "OK" : r.validation.c_str());
    if (!schedule_arg.empty()) {
      std::printf("injected faults: %lu\n", r.total_injected);
    }
    PrintTmStats(r.tm);
    PrintBreakdown(r.breakdown);
    if (cfg.collect_latency) {
      PrintLatency(r.latency, r.heatmap);
    }
    bool ok = r.validation.empty();
    if (!trace_path.empty()) {
      ok = ExportTrace(trace_path, "stamp-" + app_name + "-" + variant.Name(), cfg.threads,
                       tracer, log) &&
           ok;
    }
    if (!report_path.empty()) {
      ok = WriteReport(report_path, harness::StampReportJson(app_name, cfg, r)) && ok;
    }
    return ok ? 0 : 1;
  }

  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  Usage();
  return 2;
}
