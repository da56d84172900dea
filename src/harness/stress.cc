// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/harness/stress.h"

#include <sstream>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/harness/run_threads.h"
#include "src/sim/sync.h"

namespace harness {

using asfcommon::AbortCause;
using asfsim::SimThread;
using asfsim::Task;
using asftm::Tx;

namespace {

uint64_t Fnv1a(const std::vector<uint64_t>& keys) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint64_t k : keys) {
    for (int b = 0; b < 8; ++b) {
      h ^= (k >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

}  // namespace

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
  ASF_CHECK(ic.threads >= 1 && ic.threads <= 8);
  asf::MachineParams mp = PaperMachineParams(ic.variant, ic.threads, ic.timer_interrupts);
  asf::Machine m(mp);

  asffault::FaultInjector injector(cfg.schedule, m.scheduler().num_cores());
  m.SetFaultInjector(&injector);
  asffault::Watchdog watchdog(cfg.watchdog);
  // Sink chain: watchdog -> (latency -> heatmap ->) caller's observers. The
  // watchdog stays first so liveness monitoring sees the raw stream.
  asfobs::LatencyRecorder latency_rec;
  asfobs::HeatmapRecorder heatmap_rec;
  if (ic.collect_latency) {
    watchdog.set_next(&latency_rec);
    latency_rec.SetNext(&heatmap_rec);
    heatmap_rec.SetNext(ic.obs.tx_sink);
  } else {
    watchdog.set_next(ic.obs.tx_sink);  // Observers see the full stream too.
  }
  m.SetTxSink(&watchdog);
  if (ic.obs.tracer != nullptr) {
    m.scheduler().SetTracer(ic.obs.tracer);
  }

  auto set = MakeIntset(ic.structure, &m.arena());
  auto rt = MakeRuntime(ic.runtime, m, ic);
  PretouchIntset(m, ic.structure, set.get());

  const uint64_t initial = ic.initial_size != 0 ? ic.initial_size : ic.key_range / 2;
  ASF_CHECK(initial <= ic.key_range);
  std::vector<uint64_t> init_keys;
  {
    asfcommon::Rng rng(ic.seed * 31 + 17);
    std::unordered_set<uint64_t> chosen;
    while (chosen.size() < initial) {
      chosen.insert(rng.NextBelow(ic.key_range) + 1);
    }
    init_keys.assign(chosen.begin(), chosen.end());
  }

  // Host-side op log: net successful inserts minus successful removes per
  // key, recorded per thread from the committed bodies. The simulator's
  // cooperative scheduler serializes host code, so plain vectors suffice.
  std::vector<std::vector<int64_t>> net(ic.threads,
                                        std::vector<int64_t>(ic.key_range + 1, 0));

  asfsim::SimBarrier barrier_a(ic.threads);
  asfsim::SimBarrier barrier_b(ic.threads);
  uint64_t measure_start = 0;
  StressResult result;

  RunThreads(m, ic.threads, [&](SimThread& t, uint32_t tid) -> Task<void> {
    // ---- Population phase (thread 0; dropped at the barrier) ----
    if (tid == 0) {
      for (uint64_t key : init_keys) {
        co_await rt->Atomic(t, [&](Tx& tx) -> Task<void> {
          co_await set->Insert(tx, key);
        });
      }
    }
    co_await barrier_a.Arrive(t);
    if (tid == 0) {
      rt->ResetStats();
      for (uint32_t c = 0; c < m.scheduler().num_cores(); ++c) {
        m.scheduler().core(c).ResetStats();
        m.context(c).ResetStats();
      }
      m.mem().ResetStats();
      m.conflict_directory().ResetStats();
      // The injection counters and the watchdog reset with the statistics;
      // the watchdog forwards the reset to the chained observer sink.
      injector.ResetCounts();
      watchdog.OnMeasurementReset();
      if (ic.obs.tracer != nullptr) {
        ic.obs.tracer->Clear();
      }
      measure_start = t.core().clock();
    }
    co_await barrier_b.Arrive(t);

    // ---- Measurement phase under injected faults ----
    asfcommon::Rng rng(ic.seed * 1000003 + tid);
    const uint32_t half_upd = ic.update_pct / 2;
    for (uint64_t i = 0; i < ic.ops_per_thread; ++i) {
      uint64_t key = rng.NextBelow(ic.key_range) + 1;
      uint32_t dice = static_cast<uint32_t>(rng.NextBelow(100));
      if (dice < half_upd) {
        // `ok` is overwritten by every retry, so it ends up holding the
        // committed attempt's outcome.
        bool ok = false;
        co_await rt->Atomic(t, kSiteInsert, [&](Tx& tx) -> Task<void> {
          ok = co_await set->Insert(tx, key);
        });
        if (ok) {
          ++net[tid][key];
        }
      } else if (dice < ic.update_pct) {
        bool ok = false;
        co_await rt->Atomic(t, kSiteRemove, [&](Tx& tx) -> Task<void> {
          ok = co_await set->Remove(tx, key);
        });
        if (ok) {
          --net[tid][key];
        }
      } else {
        co_await rt->Atomic(t, kSiteContains, [&](Tx& tx) -> Task<void> {
          co_await set->Contains(tx, key);
        });
      }
    }
  });

  result.final_cycle = m.scheduler().MaxCycle();
  watchdog.Finalize(result.final_cycle);
  result.watchdog_fired = watchdog.fired();
  result.verdict = watchdog.verdict();
  result.watchdog_diagnosis = watchdog.diagnosis();
  result.progress = watchdog.progress();

  result.intset.measure_cycles = result.final_cycle - measure_start;
  result.intset.tm = rt->TotalStats();
  result.intset.committed_tx = result.intset.tm.Commits();
  if (result.intset.measure_cycles > 0) {
    result.intset.tx_per_us = static_cast<double>(result.intset.committed_tx) *
                              static_cast<double>(asfcommon::kCyclesPerMicrosecond) /
                              static_cast<double>(result.intset.measure_cycles);
  }
  for (uint32_t c = 0; c < m.scheduler().num_cores(); ++c) {
    for (size_t cat = 0; cat < result.intset.breakdown.cycles.size(); ++cat) {
      result.intset.breakdown.cycles[cat] +=
          m.scheduler().core(c).CategoryCycles(static_cast<asfsim::CycleCategory>(cat));
    }
    const auto& cs = m.context(c).stats();
    result.intset.asf.speculates += cs.speculates;
    result.intset.asf.commits += cs.commits;
    for (size_t a = 0; a < cs.aborts.size(); ++a) {
      result.intset.asf.aborts[a] += cs.aborts[a];
    }
  }
  for (size_t c = 0; c < result.injected.size(); ++c) {
    result.injected[c] = injector.injected(static_cast<AbortCause>(c));
  }
  result.total_injected = injector.total_injected();
  if (ic.collect_latency) {
    result.intset.latency = latency_rec.stats();
    result.intset.heatmap = heatmap_rec.stats();
  }

  std::ostringstream viol;
  result.intset.invariant_violation = set->CheckInvariants();
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
  std::vector<uint64_t> snapshot = set->Snapshot();
  result.set_size = snapshot.size();
  result.set_hash = Fnv1a(snapshot);
  if (cfg.verify_membership) {
    std::vector<int64_t> expect(ic.key_range + 1, 0);
    for (uint64_t key : init_keys) {
      expect[key] = 1;
    }
    for (uint32_t tid = 0; tid < ic.threads; ++tid) {
      for (uint64_t key = 1; key <= ic.key_range; ++key) {
        expect[key] += net[tid][key];
      }
    }
    std::vector<uint8_t> got(ic.key_range + 1, 0);
    for (uint64_t key : snapshot) {
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
  }
  result.invariant_violation = viol.str();
  return result;
}

}  // namespace harness
