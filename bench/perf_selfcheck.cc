// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Simulator self-benchmark: anchors the performance trajectory of the stack
// itself (docs/PERFORMANCE.md). Runs a representative slice of the Figure 5
// IntegerSet sweep twice — once serially (--jobs 1) and once fanned out over
// the host cores — and reports, for each mode, the wall-clock time, the total
// simulated cycles, and the headline metric simulated-cycles-per-host-second.
// The two passes must produce identical per-configuration results (the sweep
// engine's determinism guarantee); any digest mismatch is a hard failure.
//
// The emitted JSON (--json, checked in as BENCH_sim_throughput.json) records
// the host CPU count so a reported speedup of ~1x on a single-core runner is
// distinguishable from a regression on a multi-core one — and a per-config
// digest table. `--baseline <path>` re-reads such a report and hard-fails if
// any digest shifted, so a host-side "optimization" that changes simulated
// results cannot land silently (the bit-identity gate for the frame pool and
// the scheduler/memory fast paths), or if a deterministic host work count of
// the serial pass shifted (wakes, in-place accesses, memory accesses, memo hits,
// frame allocations), so a fast path cannot stop engaging silently either.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/asf/machine.h"
#include "src/common/frame_pool.h"
#include "src/common/table.h"
#include "src/harness/experiment.h"
#include "src/harness/sweep.h"
#include "src/obs/export.h"
#include "src/obs/json.h"

namespace {

constexpr const char* kDigestTableTitle = "Result digests (per configuration)";
constexpr const char* kFastPathTableTitle = "Host fast paths (serial pass)";
// The frame pool's hit count depends on frame sizes, which the compiler and
// its flags choose; every other fast-path count depends on the simulation
// alone.
constexpr const char* kFrameRowLabel = "coroutine frame allocs";

// One measured pass over the configuration grid.
struct PassResult {
  double wall_seconds = 0.0;
  uint64_t sim_cycles = 0;          // Sum of measured-window cycles.
  uint64_t committed_tx = 0;
  harness::HostPerf host;            // Summed fast-path telemetry.
  std::vector<std::string> digests;  // Per-config, submission order.
};

// Order-sensitive fingerprint of one configuration's result; wall-clock
// independent, so serial and parallel passes must agree byte for byte.
std::string DigestOf(const harness::IntsetResult& r) {
  return std::to_string(r.committed_tx) + ":" + std::to_string(r.measure_cycles) + ":" +
         std::to_string(r.tm.TotalAttempts()) + ":" + std::to_string(r.tm.TotalAborts());
}

std::string ConfigLabel(const harness::IntsetConfig& cfg) {
  return cfg.structure + "/r" + std::to_string(cfg.key_range) + "/u" +
         std::to_string(cfg.update_pct) + " " + cfg.variant.Name() + " t" +
         std::to_string(cfg.threads);
}

std::vector<harness::IntsetConfig> BuildGrid(const benchutil::Options& opt) {
  struct Panel {
    const char* structure;
    uint64_t key_range;
    uint32_t update_pct;
  };
  // Representative fig5 panels: short traversals (hash), long read chains
  // (list), balanced-tree contention (rb).
  const Panel panels[] = {
      {"list", 512, 20},
      {"rb", 8192, 20},
      {"hash", 8192, 100},
  };
  const asf::AsfVariant variants[] = {
      asf::AsfVariant::Llb8(),
      asf::AsfVariant::Llb256WithL1(),
  };
  std::vector<harness::IntsetConfig> grid;
  for (const Panel& p : panels) {
    for (const auto& variant : variants) {
      for (uint32_t threads : benchutil::ThreadCounts()) {
        harness::IntsetConfig cfg;
        cfg.structure = p.structure;
        cfg.key_range = p.key_range;
        cfg.update_pct = p.update_pct;
        cfg.threads = threads;
        cfg.ops_per_thread = opt.quick ? 150 : 1500;
        cfg.variant = variant;
        grid.push_back(benchutil::Seeded(cfg, opt));
      }
    }
  }
  return grid;
}

PassResult RunPass(const std::vector<harness::IntsetConfig>& grid, uint32_t jobs) {
  PassResult pass;
  auto start = std::chrono::steady_clock::now();
  harness::SweepRunner sweep(jobs);
  for (const harness::IntsetConfig& cfg : grid) {
    sweep.SubmitIntset(cfg);
  }
  sweep.Run();
  pass.wall_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (size_t i = 0; i < grid.size(); ++i) {
    const harness::IntsetResult& r = sweep.intset(i);
    pass.sim_cycles += r.measure_cycles;
    pass.committed_tx += r.committed_tx;
    pass.host.Add(r.host);
    pass.digests.push_back(DigestOf(r));
  }
  return pass;
}

std::string Rate(uint64_t cycles, double seconds) {
  if (seconds <= 0.0) {
    return "-";
  }
  return asfcommon::Table::Num(static_cast<double>(cycles) / seconds / 1e6, 1);
}

std::string Pct(uint64_t part, uint64_t whole) {
  if (whole == 0) {
    return "-";
  }
  return asfcommon::Table::Num(100.0 * static_cast<double>(part) / static_cast<double>(whole), 1) +
         "%";
}

// The rows of the table titled `title` in a parsed JSON report, or null.
const asfobs::JsonValue* FindRows(const asfobs::JsonValue& root, const char* title) {
  const asfobs::JsonValue* tables = root.Get("tables");
  if (tables == nullptr || !tables->IsArray()) {
    return nullptr;
  }
  for (const asfobs::JsonValue& t : tables->items()) {
    const asfobs::JsonValue* t_title = t.Get("title");
    if (t_title != nullptr && t_title->AsString() == title) {
      const asfobs::JsonValue* rows = t.Get("rows");
      return rows != nullptr && rows->IsArray() ? rows : nullptr;
    }
  }
  return nullptr;
}

// Compares this run's digest table and the host work counts of its
// fast-path table (the serial pass's events and fast-path hits, exactly)
// against a previously written JSON report. Returns 0 on match, 1 on a
// digest or count mismatch (simulated results or host work shifted), 2 when
// the baseline is unusable (unreadable, wrong mode/seed, or predates one of
// the two tables).
int CheckBaseline(const std::string& path, const benchutil::Options& opt,
                  const asfcommon::Table& digests, const asfcommon::Table& fast) {
  std::string text;
  std::string error;
  if (!asfobs::ReadTextFile(path, &text, &error)) {
    std::fprintf(stderr, "baseline: %s\n", error.c_str());
    return 2;
  }
  asfobs::JsonValue root;
  if (!asfobs::JsonValue::Parse(text, &root, &error)) {
    std::fprintf(stderr, "baseline %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  const asfobs::JsonValue* quick = root.Get("quick");
  const asfobs::JsonValue* seed = root.Get("seed");
  if (quick == nullptr || seed == nullptr || quick->AsBool() != opt.quick ||
      seed->AsUInt() != opt.seed) {
    std::fprintf(stderr,
                 "baseline %s: mode mismatch (baseline quick=%s seed=%llu, run quick=%s "
                 "seed=%llu); digests are only comparable for identical modes\n",
                 path.c_str(), quick != nullptr && quick->AsBool() ? "true" : "false",
                 seed != nullptr ? static_cast<unsigned long long>(seed->AsUInt()) : 0ull,
                 opt.quick ? "true" : "false", static_cast<unsigned long long>(opt.seed));
    return 2;
  }
  const asfobs::JsonValue* base_digests = FindRows(root, kDigestTableTitle);
  const asfobs::JsonValue* base_fast = FindRows(root, kFastPathTableTitle);
  if (base_digests == nullptr || base_fast == nullptr) {
    std::fprintf(stderr,
                 "baseline %s: no \"%s\" table — regenerate the baseline with a current "
                 "binary (--json)\n",
                 path.c_str(), base_digests == nullptr ? kDigestTableTitle : kFastPathTableTitle);
    return 2;
  }
  if (base_digests->size() != digests.rows().size()) {
    std::fprintf(stderr, "baseline %s: %zu configurations, this run has %zu\n", path.c_str(),
                 base_digests->size(), digests.rows().size());
    return 1;
  }
  int mismatches = 0;
  for (size_t i = 0; i < digests.rows().size(); ++i) {
    const asfobs::JsonValue& row = base_digests->at(i);
    const std::string& label = digests.rows()[i][0];
    const std::string& digest = digests.rows()[i][1];
    if (row.size() != 2 || row.at(0).AsString() != label || row.at(1).AsString() != digest) {
      std::fprintf(stderr, "FAILED: digest shift at config %zu\n  baseline: %s = %s\n  run:      %s = %s\n",
                   i, row.size() == 2 ? row.at(0).AsString().c_str() : "?",
                   row.size() == 2 ? row.at(1).AsString().c_str() : "?", label.c_str(),
                   digest.c_str());
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FAILED: %d digest(s) shifted against %s — a host-side change altered "
                 "simulated results\n",
                 mismatches, path.c_str());
    return 1;
  }
  // Host work counts: a fast path that silently stops engaging, or a change
  // that adds work per event, moves these without moving a digest.
  if (base_fast->size() != fast.rows().size()) {
    std::fprintf(stderr, "baseline %s: %zu fast-path rows, this run has %zu\n", path.c_str(),
                 base_fast->size(), fast.rows().size());
    return 1;
  }
  int count_shifts = 0;
  for (size_t i = 0; i < fast.rows().size(); ++i) {
    const asfobs::JsonValue& row = base_fast->at(i);
    const std::vector<std::string>& run = fast.rows()[i];
    // Column 1 holds events, column 2 fast-path hits.
    const size_t last = run[0] == kFrameRowLabel ? 1 : 2;
    bool same = row.size() == run.size() && row.at(0).AsString() == run[0];
    for (size_t c = 1; same && c <= last; ++c) {
      same = row.at(c).AsString() == run[c];
    }
    if (!same) {
      std::fprintf(stderr,
                   "FAILED: host count shift in \"%s\"\n  baseline: events %s, hits %s\n"
                   "  run:      events %s, hits %s\n",
                   run[0].c_str(), row.size() > 1 ? row.at(1).AsString().c_str() : "?",
                   row.size() > 2 ? row.at(2).AsString().c_str() : "?", run[1].c_str(),
                   run[2].c_str());
      ++count_shifts;
    }
  }
  if (count_shifts != 0) {
    std::fprintf(stderr,
                 "FAILED: the \"%s\" counts differ from %s — host work per run changed; "
                 "regenerate the baseline if that is intended\n",
                 kFastPathTableTitle, path.c_str());
    return 1;
  }
  std::printf("baseline: all %zu digests and the host fast-path counts match %s\n",
              digests.rows().size(), path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Benchmark-specific flags: --baseline <path> compares this run's digests
  // and host fast-path counts against a prior --json report and fails on any
  // shift; --gate-check reruns
  // the grid with the conflict directory's active-speculator gate
  // force-disabled and fails if any digest differs from the gated serial pass
  // (the fast path must never drift from the slow path).
  std::string baseline_path;
  bool gate_check = false;
  benchutil::Options opt = benchutil::ParseArgs(
      argc, argv,
      {{.name = "--baseline",
        .operand = &baseline_path,
        .usage = "  --baseline <path>  fail unless the digests and host fast-path counts match\n"
                 "                     this prior --json report\n"},
       {.name = "--gate-check",
        .on = &gate_check,
        .usage = "  --gate-check   also run with the speculator gate disabled and require\n"
                 "                 identical digests\n"}});
  benchutil::JsonReport report("perf_selfcheck", opt);

  const std::vector<harness::IntsetConfig> grid = BuildGrid(opt);
  const benchutil::HostInfo host_info = benchutil::QueryHostInfo();
  const uint32_t host_cpus = harness::DefaultJobs();
  const uint32_t parallel_jobs = opt.jobs != 0 ? opt.jobs : host_cpus;

  // Host pinning context up front: throughput numbers from a host whose
  // affinity mask is narrower than its CPU count are not comparable to an
  // unpinned run (the JSON header carries the same pair of numbers).
  std::printf(
      "Simulator self-benchmark: %zu configurations (fig5 slice), host CPUs %u "
      "(affinity %u)\n\n",
      grid.size(), host_cpus, host_info.affinity_cpus);

  // The serial pass runs inline on this thread (SweepRunner contract for
  // jobs=1), so the thread-local frame pool delta below covers exactly it.
  // It is the reference every other pass — parallel, gate-check, --baseline —
  // is held to.
  const asfcommon::FramePool::Stats frames_before = asfcommon::FramePool::ForThread().stats();
  const PassResult serial = RunPass(grid, 1);
  const asfcommon::FramePool::Stats frames_after = asfcommon::FramePool::ForThread().stats();
  const PassResult parallel = RunPass(grid, parallel_jobs);

  // Determinism gate: the fan-out may not change a single result.
  for (size_t i = 0; i < grid.size(); ++i) {
    if (serial.digests[i] != parallel.digests[i]) {
      std::fprintf(stderr,
                   "FAILED: config %zu diverged between --jobs 1 and --jobs %u\n"
                   "  serial:   %s\n  parallel: %s\n",
                   i, parallel_jobs, serial.digests[i].c_str(), parallel.digests[i].c_str());
      return 1;
    }
  }

  // Gate equivalence: the active-speculator gate and single-speculator fast
  // path are host-side short circuits; disabling them must not move a bit.
  if (gate_check) {
    const bool prev = asf::SpeculatorGateDisabled();
    asf::SetSpeculatorGateDisabled(true);
    const PassResult ungated = RunPass(grid, 1);
    asf::SetSpeculatorGateDisabled(prev);
    for (size_t i = 0; i < grid.size(); ++i) {
      if (serial.digests[i] != ungated.digests[i]) {
        std::fprintf(stderr,
                     "FAILED: config %zu diverged with the speculator gate disabled\n"
                     "  gated:   %s\n  ungated: %s\n",
                     i, serial.digests[i].c_str(), ungated.digests[i].c_str());
        return 1;
      }
    }
    std::printf("gate-check: all %zu digests identical with the gate disabled "
                "(gated probes %llu, ungated probes %llu)\n\n",
                grid.size(), static_cast<unsigned long long>(serial.host.dir_probes),
                static_cast<unsigned long long>(ungated.host.dir_probes));
  }

  const double speedup =
      parallel.wall_seconds > 0.0 ? serial.wall_seconds / parallel.wall_seconds : 0.0;

  asfcommon::Table table("Simulation throughput (Mcycles = 1e6 simulated cycles)");
  table.SetHeader({"mode", "wall s", "sim Mcycles", "sim Mcycles/s", "tx committed"});
  table.AddRow({"serial (--jobs 1)", asfcommon::Table::Num(serial.wall_seconds, 3),
                asfcommon::Table::Num(static_cast<double>(serial.sim_cycles) / 1e6, 1),
                Rate(serial.sim_cycles, serial.wall_seconds),
                asfcommon::Table::Int(static_cast<long long>(serial.committed_tx))});
  table.AddRow({"parallel (--jobs " + std::to_string(parallel_jobs) + ")",
                asfcommon::Table::Num(parallel.wall_seconds, 3),
                asfcommon::Table::Num(static_cast<double>(parallel.sim_cycles) / 1e6, 1),
                Rate(parallel.sim_cycles, parallel.wall_seconds),
                asfcommon::Table::Int(static_cast<long long>(parallel.committed_tx))});
  report.Print(table);

  // Host fast-path telemetry (serial pass): how many wakes the scheduler
  // took, how many were the earliest event when scheduled, how often an
  // access completed in place with no wake, and how often the memory
  // system's memo and the coroutine frame recycler removed work from the
  // per-access path.
  const uint64_t frame_allocs = frames_after.allocs - frames_before.allocs;
  const uint64_t frame_hits = frames_after.pool_hits - frames_before.pool_hits;
  asfcommon::Table fast(kFastPathTableTitle);
  fast.SetHeader({"layer", "events", "fast-path hits", "hit rate"});
  fast.AddRow({"wakes scheduled", asfcommon::Table::Int(static_cast<long long>(serial.host.wakes)),
               asfcommon::Table::Int(static_cast<long long>(serial.host.fast_wakes)),
               Pct(serial.host.fast_wakes, serial.host.wakes)});
  fast.AddRow({"accesses completed in place",
               asfcommon::Table::Int(static_cast<long long>(serial.host.accesses)),
               asfcommon::Table::Int(static_cast<long long>(serial.host.inline_wakes)),
               Pct(serial.host.inline_wakes, serial.host.accesses)});
  fast.AddRow({"mem accesses (line memo)",
               asfcommon::Table::Int(static_cast<long long>(serial.host.mem_accesses)),
               asfcommon::Table::Int(static_cast<long long>(serial.host.mem_line_hits)),
               Pct(serial.host.mem_line_hits, serial.host.mem_accesses)});
  fast.AddRow({"mem accesses (page memo)",
               asfcommon::Table::Int(static_cast<long long>(serial.host.mem_accesses)),
               asfcommon::Table::Int(static_cast<long long>(serial.host.mem_page_hits)),
               Pct(serial.host.mem_page_hits, serial.host.mem_accesses)});
  fast.AddRow({kFrameRowLabel, asfcommon::Table::Int(static_cast<long long>(frame_allocs)),
               asfcommon::Table::Int(static_cast<long long>(frame_hits)),
               Pct(frame_hits, frame_allocs)});
  report.Print(fast);

  // Conflict-directory telemetry (serial pass): how often the
  // active-speculator gate removed conflict resolution entirely, how often
  // the single-speculator path short-circuited the decode, and the mean
  // number of directory probes each resolved access paid.
  const harness::HostPerf& hp = serial.host;
  asfcommon::Table dir("Conflict directory (serial pass)");
  dir.SetHeader({"metric", "value", "rate"});
  dir.AddRow({"conflict resolutions",
              asfcommon::Table::Int(static_cast<long long>(hp.dir_resolutions)), "-"});
  dir.AddRow({"active-speculator gate skips",
              asfcommon::Table::Int(static_cast<long long>(hp.dir_gate_skips)),
              Pct(hp.dir_gate_skips, hp.dir_resolutions)});
  dir.AddRow({"single-speculator fast paths",
              asfcommon::Table::Int(static_cast<long long>(hp.dir_solo_fast_paths)),
              Pct(hp.dir_solo_fast_paths, hp.dir_resolutions)});
  dir.AddRow({"directory probes",
              asfcommon::Table::Int(static_cast<long long>(hp.dir_probes)),
              hp.dir_resolutions == 0
                  ? "-"
                  : asfcommon::Table::Num(static_cast<double>(hp.dir_probes) /
                                              static_cast<double>(hp.dir_resolutions),
                                          3) + "/access"});
  dir.AddRow({"directory probe hits",
              asfcommon::Table::Int(static_cast<long long>(hp.dir_probe_hits)),
              Pct(hp.dir_probe_hits, hp.dir_probes)});
  report.Print(dir);

  asfcommon::Table digests(kDigestTableTitle);
  digests.SetHeader({"configuration", "digest (tx:cycles:attempts:aborts)"});
  for (size_t i = 0; i < grid.size(); ++i) {
    digests.AddRow({ConfigLabel(grid[i]), serial.digests[i]});
  }
  report.Add(digests);

  asfcommon::Table summary("Self-check summary");
  summary.SetHeader({"metric", "value"});
  summary.AddRow({"host cpus", std::to_string(host_cpus)});
  summary.AddRow({"host affinity cpus", std::to_string(host_info.affinity_cpus)});
  summary.AddRow({"parallel jobs", std::to_string(parallel_jobs)});
  summary.AddRow({"configurations", std::to_string(grid.size())});
  summary.AddRow({"speedup (serial wall / parallel wall)", asfcommon::Table::Num(speedup, 2)});
  summary.AddRow({"determinism", "jobs-invariant (all digests equal)"});
  report.Print(summary);

  std::printf("speedup: %.2fx with %u jobs on %u host CPUs\n", speedup, parallel_jobs, host_cpus);
  if (host_cpus >= 4 && parallel_jobs >= 4 && speedup < 2.0) {
    // Informational, not fatal: wall-clock on shared CI hosts is noisy, and
    // the determinism gate above is the correctness check.
    std::printf("note: speedup below the 2x target expected of a >=4-core host\n");
  }
  if (!baseline_path.empty()) {
    int rc = CheckBaseline(baseline_path, opt, digests, fast);
    if (rc != 0) {
      return rc;
    }
  }
  return report.Write() ? 0 : 1;
}
