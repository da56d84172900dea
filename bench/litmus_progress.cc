// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Progress under adversarial schedules (docs/ROBUSTNESS.md): races the
// contention manager and its no-backoff control against always-winning
// requester adversaries and reports the watchdog's per-policy progress
// accounting.
//
// Two adversaries, both aimed at core 0 of an ASF-TM run so the rest of the
// machine keeps committing (starvation needs a fed competitor, not a global
// stall):
//
//   bully   a requester-wins bully that snipes core 0's every commit point
//           (`bully core=0 every=1`);
//   sniper  a conflict probe that beats core 0's every hardware attempt at
//           its first access (`at contention attempt=1 every=1 core=0`).
//
// The two adversaries construct the watchdog's two distinct failure modes.
// The sniper hits before the victim performs any coherence traffic, so core
// 1 commits freely while core 0 loses every race: divergence — STARVATION.
// The bully hits at the commit point, after the victim's accesses are in
// flight, and requester-wins makes those accesses abort core 1's regions
// too: a mutual stall with no commits anywhere — LIVELOCK.
//
// Expected outcomes, checked and exit-coded (the bench is a gate, not just a
// report): `no-backoff` — retry forever, never serialize — must hit the
// adversary's failure mode (if it does not, the adversary stopped biting and
// the other verdicts mean nothing); `exp-backoff` must keep every core
// committing (verdict "progress", no starved cores), because it eventually
// claims the serial-irrevocable fallback no adversary can abort. The per-cell watchdog accounting lands in the JSON
// report's "progress" section, which tools/json_check schema-validates and
// tools/bench_diff compares across runs ("no thread starves under bully" as
// a regression gate).
//
//   usage: litmus_progress [--quick] [--json <path>] [--seed <n>] [--jobs <n>]
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fault/fault_schedule.h"
#include "src/harness/stress.h"
#include "src/harness/sweep.h"

namespace {

using asfcommon::Table;
using asffault::FaultSchedule;
using asffault::Watchdog;

struct Adversary {
  const char* name;
  const char* schedule;  // FaultSchedule text.
  // The verdict the adversary must force out of the no-backoff control.
  Watchdog::Verdict failure_mode;
};

// The injection caps bound the adversary so even a stalled run terminates;
// both verdicts trip long before the caps run out (starvation at 200 lost
// attempts, livelock at a 100k-cycle commit gap), and exp-backoff
// serializes out of reach after single-digit losses per block.
constexpr Adversary kAdversaries[] = {
    {"bully", "seed 11\nbully core=0 every=1 max=2000\n", Watchdog::Verdict::kLivelock},
    {"sniper", "seed 11\nat contention attempt=1 every=1 core=0 max=2000\n",
     Watchdog::Verdict::kStarvation},
};

struct Contender {
  const char* policy;  // MakeContentionPolicy spec.
  bool is_control;     // No fallback, no yield: the adversary must win.
};

constexpr Contender kContenders[] = {
    {"no-backoff", true},
    {"exp-backoff", false},
};

std::string JoinCores(const std::vector<uint32_t>& cores) {
  if (cores.empty()) {
    return "-";
  }
  std::string out;
  for (uint32_t c : cores) {
    if (!out.empty()) {
      out += ",";
    }
    out += Table::Int(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Options opt = benchutil::ParseArgs(argc, argv);
  benchutil::JsonReport report("litmus_progress", opt);
  const uint64_t seed = opt.seed != 0 ? opt.seed : 1;

  harness::SweepRunner sweep(opt.jobs);
  for (const Adversary& adv : kAdversaries) {
    for (const Contender& con : kContenders) {
      harness::StressConfig sc;
      sc.intset.structure = "list";
      sc.intset.key_range = 32;
      sc.intset.initial_size = 1;  // The (also bullied) population stays cheap.
      sc.intset.update_pct = 100;
      sc.intset.threads = 2;
      sc.intset.ops_per_thread = opt.quick ? 50 : 200;
      sc.intset.runtime = harness::RuntimeKind::kAsfTm;
      sc.intset.seed = seed;
      sc.intset.contention_policy = con.policy;
      std::string error;
      ASF_CHECK_MSG(FaultSchedule::Parse(adv.schedule, &sc.schedule, &error), error.c_str());
      sc.watchdog.starvation_attempts = 200;
      sc.watchdog.commit_gap_cycles = 100000;
      sweep.SubmitStress(sc);
    }
  }
  sweep.Run();

  bool failed = false;
  size_t job = 0;
  for (const Adversary& adv : kAdversaries) {
    Table table("Progress race: " + std::string(adv.name) + " adversary vs core 0 (ASF-TM)");
    table.SetHeader({"policy", "verdict", "starved cores", "commits c0", "commits c1",
                     "max streak c0", "commit gap", "expected", "check"});
    for (const Contender& con : kContenders) {
      const harness::StressResult& r = sweep.stress(job++);
      const std::string label = std::string(adv.name) + "/" + con.policy;
      report.AddProgress(label, r.progress);

      const Watchdog::ProgressReport& p = r.progress;
      // The control must hit the adversary's failure mode (starvation also
      // has to name a starved core); the real policies must keep the verdict
      // clean AND starve nobody.
      bool ok;
      if (con.is_control) {
        ok = p.verdict == adv.failure_mode &&
             (adv.failure_mode != Watchdog::Verdict::kStarvation || !p.starved_cores.empty());
      } else {
        ok = p.verdict == Watchdog::Verdict::kProgress && p.starved_cores.empty();
      }
      if (!ok) {
        failed = true;
        std::fprintf(stderr, "progress check failed (%s): verdict=%s starved=[%s]\n",
                     label.c_str(), Watchdog::VerdictName(p.verdict),
                     JoinCores(p.starved_cores).c_str());
      }
      if (!r.invariant_violation.empty()) {
        failed = true;
        std::fprintf(stderr, "invariant violation (%s): %s\n", label.c_str(),
                     r.invariant_violation.c_str());
      }
      const uint64_t c0 = p.commits.size() > 0 ? p.commits[0] : 0;
      const uint64_t c1 = p.commits.size() > 1 ? p.commits[1] : 0;
      const uint64_t streak0 = p.max_abort_streak.size() > 0 ? p.max_abort_streak[0] : 0;
      table.AddRow({con.policy, Watchdog::VerdictName(p.verdict), JoinCores(p.starved_cores),
                    Table::Int(static_cast<long long>(c0)),
                    Table::Int(static_cast<long long>(c1)),
                    Table::Int(static_cast<long long>(streak0)),
                    Table::Int(static_cast<long long>(p.max_commit_gap_cycles)),
                    con.is_control ? Watchdog::VerdictName(adv.failure_mode) : "progress",
                    ok ? "ok" : "FAILED"});
    }
    report.Print(table);
  }

  if (!report.Write()) {
    return 1;
  }
  if (failed) {
    std::fprintf(stderr, "FAILED: a contention policy missed its progress guarantee.\n");
    return 1;
  }
  std::printf("All progress guarantees held (and the no-backoff control hit both failure modes).\n");
  return 0;
}
