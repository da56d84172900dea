// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/harness/stress.h"

#include <sstream>
#include <vector>

#include "src/common/digest.h"
#include "src/harness/measured_run.h"

namespace harness {

using asfcommon::AbortCause;

std::string StressResult::Digest() const {
  std::ostringstream os;
  const asftm::TxStats& tm = intset.tm;
  os << "commits=" << tm.Commits() << ";hw=" << tm.hw_commits << ";stm=" << tm.stm_commits
     << ";serial=" << tm.serial_commits << ";seq=" << tm.seq_commits
     << ";attempts=" << tm.TotalAttempts() << ";aborts=" << tm.TotalAborts();
  for (size_t c = 1; c < tm.aborts.size(); ++c) {
    if (tm.aborts[c] != 0) {
      os << ";abort." << asfcommon::AbortCauseName(static_cast<AbortCause>(c)) << "="
         << tm.aborts[c];
    }
  }
  os << ";injected=" << total_injected;
  for (size_t c = 1; c < injected.size(); ++c) {
    if (injected[c] != 0) {
      os << ";inj." << asfcommon::AbortCauseName(static_cast<AbortCause>(c)) << "="
         << injected[c];
    }
  }
  os << ";backoff_cycles=" << tm.backoff_cycles << ";measure_cycles=" << intset.measure_cycles
     << ";final_cycle=" << final_cycle << ";watchdog=" << (watchdog_fired ? 1 : 0)
     << ";verdict=" << static_cast<int>(verdict) << ";set_size=" << set_size << ";set_hash=0x"
     << std::hex << set_hash;
  return os.str();
}

StressResult RunStress(const StressConfig& cfg) {
  const IntsetConfig& ic = cfg.intset;
  asffault::Watchdog watchdog(cfg.watchdog);
  MeasuredRun run(PaperMachineParams(ic.variant, ic.threads, ic.timer_interrupts), ic.obs,
                  ic.collect_latency, cfg.schedule, &watchdog);
  IntsetOutcomes outcomes;
  StressResult result;
  result.intset = RunIntsetWorkload(run, ic, &outcomes);
  run.CollectInjected(&result.injected, &result.total_injected);

  result.final_cycle = run.machine().scheduler().MaxCycle();
  watchdog.Finalize(result.final_cycle);
  result.watchdog_fired = watchdog.fired();
  result.verdict = watchdog.verdict();
  result.watchdog_diagnosis = watchdog.diagnosis();
  result.progress = watchdog.progress();

  std::ostringstream viol;
  if (!result.intset.invariant_violation.empty()) {
    viol << "structure: " << result.intset.invariant_violation << "; ";
  }

  // Statistics conservation: every attempt committed or aborted exactly once.
  const asftm::TxStats& tm = result.intset.tm;
  if (tm.TotalAttempts() != tm.Commits() + tm.TotalAborts()) {
    viol << "stats conservation: attempts=" << tm.TotalAttempts()
         << " != commits=" << tm.Commits() << " + aborts=" << tm.TotalAborts() << "; ";
  }

  // Membership conservation against the committed-op log.
  result.set_size = outcomes.final_keys.size();
  result.set_hash = asfcommon::kFnvOffset;
  for (uint64_t key : outcomes.final_keys) {
    result.set_hash = asfcommon::FnvMix(result.set_hash, key);
  }
  std::vector<int64_t> expect(ic.key_range + 1, 0);
  for (uint64_t key : outcomes.initial_keys) {
    expect[key] = 1;
  }
  for (const std::vector<int64_t>& net : outcomes.net) {
    for (uint64_t key = 1; key <= ic.key_range; ++key) {
      expect[key] += net[key];
    }
  }
  std::vector<uint8_t> got(ic.key_range + 1, 0);
  for (uint64_t key : outcomes.final_keys) {
    if (key == 0 || key > ic.key_range) {
      viol << "membership: key " << key << " outside [1," << ic.key_range << "]; ";
    } else {
      got[key] = 1;
    }
  }
  for (uint64_t key = 1; key <= ic.key_range; ++key) {
    if (expect[key] < 0 || expect[key] > 1) {
      viol << "membership: key " << key << " has impossible net count " << expect[key]
           << " (duplicated or lost update); ";
      break;
    }
    if (expect[key] != got[key]) {
      viol << "membership: key " << key << " expected " << expect[key] << " got "
           << static_cast<int>(got[key]) << "; ";
      break;
    }
  }
  result.invariant_violation = viol.str();
  return result;
}

}  // namespace harness
