// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/harness/experiment.h"

#include <optional>
#include <unordered_set>

#include "src/common/random.h"
#include "src/harness/measured_run.h"
#include "src/intset/hash_set.h"
#include "src/intset/linked_list.h"
#include "src/intset/rb_tree.h"
#include "src/intset/skip_list.h"
#include "src/tm/asf_tm.h"
#include "src/tm/lock_elision.h"
#include "src/tm/phased_tm.h"
#include "src/tm/serial_tm.h"
#include "src/tm/tiny_stm.h"

namespace harness {

using asfsim::SimThread;
using asfsim::Task;
using asftm::Tx;

void HostPerf::Add(const HostPerf& o) {
  wakes += o.wakes;
  fast_wakes += o.fast_wakes;
  accesses += o.accesses;
  inline_wakes += o.inline_wakes;
  mem_accesses += o.mem_accesses;
  mem_line_hits += o.mem_line_hits;
  mem_page_hits += o.mem_page_hits;
  dir_resolutions += o.dir_resolutions;
  dir_gate_skips += o.dir_gate_skips;
  dir_solo_fast_paths += o.dir_solo_fast_paths;
  dir_probes += o.dir_probes;
  dir_probe_hits += o.dir_probe_hits;
}

const char* RuntimeKindName(RuntimeKind k) {
  switch (k) {
    case RuntimeKind::kAsfTm:
      return "ASF-TM";
    case RuntimeKind::kTinyStm:
      return "TinySTM";
    case RuntimeKind::kSequential:
      return "Sequential";
    case RuntimeKind::kGlobalLock:
      return "GlobalLock";
    case RuntimeKind::kPhasedTm:
      return "PhasedTM";
    case RuntimeKind::kLockElision:
      return "LockElision";
  }
  return "invalid";
}

asftm::ExpBackoffParams PolicyFromSpec(const std::string& spec,
                                       const asftm::ExpBackoffParams& runtime_default) {
  if (spec.empty()) {
    return runtime_default;
  }
  std::string error;
  std::optional<asftm::ExpBackoffParams> policy = asftm::MakeContentionPolicy(spec, &error);
  ASF_CHECK_MSG(policy.has_value(), error.c_str());
  return *policy;
}

asf::MachineParams PaperMachineParams(const asf::AsfVariant& variant, uint32_t threads,
                                      bool timer_interrupts) {
  asf::MachineParams p;
  p.num_cores = threads;
  p.variant = variant;
  p.core.timer_enabled = timer_interrupts;
  return p;
}

std::unique_ptr<asftm::TmRuntime> MakeRuntime(RuntimeKind kind, asf::Machine& m,
                                              const IntsetConfig& cfg) {
  switch (kind) {
    case RuntimeKind::kAsfTm: {
      asftm::AsfTmParams p;
      if (cfg.barrier_instructions >= 0) {
        p.barrier_instructions = static_cast<uint32_t>(cfg.barrier_instructions);
      }
      p.rng_seed = cfg.seed * 0x1234567 + 99;
      p.policy = PolicyFromSpec(cfg.contention_policy, p.policy);
      return std::make_unique<asftm::AsfTm>(m, p);
    }
    case RuntimeKind::kTinyStm: {
      asftm::TinyStmParams p;
      if (cfg.barrier_instructions >= 0) {
        p.load_instructions += static_cast<uint32_t>(cfg.barrier_instructions);
        p.store_instructions += static_cast<uint32_t>(cfg.barrier_instructions);
      }
      p.rng_seed = cfg.seed * 0x7654321 + 7;
      p.policy = PolicyFromSpec(cfg.contention_policy, p.policy);
      return std::make_unique<asftm::TinyStm>(m, p);
    }
    case RuntimeKind::kSequential:
      return std::make_unique<asftm::SequentialTm>(m);
    case RuntimeKind::kGlobalLock:
      return std::make_unique<asftm::GlobalLockTm>(m);
    case RuntimeKind::kPhasedTm: {
      asftm::PhasedTmParams p;
      if (cfg.barrier_instructions >= 0) {
        p.barrier_instructions = static_cast<uint32_t>(cfg.barrier_instructions);
      }
      p.rng_seed = cfg.seed * 0x33331 + 3;
      p.policy = PolicyFromSpec(cfg.contention_policy, p.policy);
      return std::make_unique<asftm::PhasedTm>(m, p);
    }
    case RuntimeKind::kLockElision: {
      asftm::ElisionTmParams p;
      if (cfg.barrier_instructions >= 0) {
        p.barrier_instructions = static_cast<uint32_t>(cfg.barrier_instructions);
      }
      p.lock.rng_seed = cfg.seed * 0x51515 + 5;
      p.lock.policy = PolicyFromSpec(cfg.contention_policy, p.lock.policy);
      return std::make_unique<asftm::ElisionTm>(m, p);
    }
  }
  ASF_CHECK(false);
  return nullptr;
}

std::unique_ptr<intset::IntSet> MakeIntset(const std::string& kind, asfcommon::SimArena* arena) {
  if (kind == "list") {
    return std::make_unique<intset::LinkedList>(false, arena);
  }
  if (kind == "list-er") {
    return std::make_unique<intset::LinkedList>(true, arena);
  }
  if (kind == "skip") {
    return std::make_unique<intset::SkipList>(arena);
  }
  if (kind == "rb") {
    return std::make_unique<intset::RbTree>(arena);
  }
  if (kind == "hash") {
    return std::make_unique<intset::HashSet>(17, arena);
  }
  ASF_CHECK_MSG(false, "unknown intset structure");
  return nullptr;
}

void PretouchIntset(asf::Machine& m, const std::string& kind, intset::IntSet* set) {
  // The paper fast-forwards benchmark initialization; resident images
  // (sentinels, bucket tables) are pretouched. Node pages fault naturally.
  if (kind == "hash") {
    auto* hs = static_cast<intset::HashSet*>(set);
    m.mem().PretouchPages(reinterpret_cast<uint64_t>(hs->table_data()), hs->table_bytes());
  }
}

IntsetResult RunIntsetWorkload(MeasuredRun& run, const IntsetConfig& cfg,
                               IntsetOutcomes* outcomes) {
  asf::Machine& m = run.machine();
  auto set = MakeIntset(cfg.structure, &m.arena());
  auto rt = MakeRuntime(cfg.runtime, m, cfg);
  PretouchIntset(m, cfg.structure, set.get());
  if (cfg.collect_latency && cfg.structure == "hash") {
    // Named-region attribution for the heatmap: the one resident image the
    // harness can name is the hash bucket array. Lines outside registered
    // regions report "-". Registered arena-relative: conflict-edge events
    // carry arena-relative lines (Machine::ObsLine).
    auto* hs = static_cast<intset::HashSet*>(set.get());
    run.heatmap_regions().Register(
        "hash:table", reinterpret_cast<uint64_t>(hs->table_data()) - m.arena().base(),
        hs->table_bytes());
  }

  const uint64_t initial = cfg.initial_size != 0 ? cfg.initial_size : cfg.key_range / 2;
  ASF_CHECK(initial <= cfg.key_range);

  // Deterministic initial contents: `initial` distinct keys from the range.
  std::vector<uint64_t> init_keys;
  {
    asfcommon::Rng rng(cfg.seed * 31 + 17);
    std::unordered_set<uint64_t> chosen;
    while (chosen.size() < initial) {
      chosen.insert(rng.NextBelow(cfg.key_range) + 1);
    }
    init_keys.assign(chosen.begin(), chosen.end());
  }
  if (outcomes != nullptr) {
    outcomes->initial_keys = init_keys;
    // The cooperative scheduler serializes host code: plain vectors suffice.
    outcomes->net.assign(cfg.threads, std::vector<int64_t>(cfg.key_range + 1, 0));
  }

  run.Run(
      *rt, cfg.threads,
      // Population phase (thread 0), dropped at the measurement barrier.
      [&](SimThread& t, uint32_t tid) -> Task<void> {
        if (tid == 0) {
          for (uint64_t key : init_keys) {
            co_await rt->Atomic(t, [&](Tx& tx) -> Task<void> {
              co_await set->Insert(tx, key);
            });
          }
        }
      },
      // Measurement phase: the op mix.
      [&](SimThread& t, uint32_t tid) -> Task<void> {
        asfcommon::Rng rng(cfg.seed * 1000003 + tid);
        const uint32_t half_upd = cfg.update_pct / 2;
        for (uint64_t i = 0; i < cfg.ops_per_thread; ++i) {
          uint64_t key = rng.NextBelow(cfg.key_range) + 1;
          uint32_t dice = static_cast<uint32_t>(rng.NextBelow(100));
          // `ok` is overwritten by every retry, so it ends up holding the
          // committed attempt's outcome.
          bool ok = false;
          int64_t delta = 0;
          if (dice < half_upd) {
            co_await rt->Atomic(t, [&](Tx& tx) -> Task<void> {
              ok = co_await set->Insert(tx, key);
            });
            delta = 1;
          } else if (dice < cfg.update_pct) {
            co_await rt->Atomic(t, [&](Tx& tx) -> Task<void> {
              ok = co_await set->Remove(tx, key);
            });
            delta = -1;
          } else {
            co_await rt->Atomic(t, [&](Tx& tx) -> Task<void> {
              co_await set->Contains(tx, key);
            });
          }
          if (ok && outcomes != nullptr) {
            outcomes->net[tid][key] += delta;
          }
        }
      });

  IntsetResult result = run.Collect();
  result.invariant_violation = set->CheckInvariants();
  if (outcomes != nullptr) {
    outcomes->final_keys = set->Snapshot();
  }
  return result;
}

IntsetResult RunIntset(const IntsetConfig& cfg) {
  return RunIntsetOnParams(cfg, PaperMachineParams(cfg.variant, cfg.threads,
                                                   cfg.timer_interrupts));
}

IntsetResult RunIntsetOnParams(const IntsetConfig& cfg,
                               const asf::MachineParams& machine_params) {
  MeasuredRun run(machine_params, cfg.obs, cfg.collect_latency);
  IntsetResult result = RunIntsetWorkload(run, cfg, nullptr);
  ASF_CHECK_MSG(result.invariant_violation.empty(), result.invariant_violation.c_str());
  return result;
}

}  // namespace harness
