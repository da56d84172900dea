// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Ablations of the design choices DESIGN.md calls out:
//   1. Serial fallback policy for capacity aborts: the paper's
//      "go serial immediately" versus "retry in hardware and hope" (the
//      alternative Sec. 5 discusses for transient capacity aborts).
//   2. Contention-management retry budget before serializing.
//   3. ABI dispatch cost: statically linked + LTO (inlined barriers, the
//      paper's configuration) versus a dynamically linked TM library.
//   4. TM versus a single global lock (the lock-elision motivation).
//   5. Fallback strategy: serial-irrevocable (the paper's ASF-TM) versus a
//      PhasedTM-style system-wide software phase (the alternative Sec. 3.2
//      names), on a workload whose transactions exceed the LLB.
//   6. L1 associativity sensitivity of the w/-L1 read-set tracking variants
//      (the paper: "usable capacity is dependent on address layout" because
//      the L1 is two-way set associative).
//   7. Lock elision (Sec. 3): an elided lock versus a conventional one on
//      disjoint critical sections.
//   8. ASF1 vs ASF2 (Sec. 6): the predecessor's static protected set (no
//      expansion after the first speculative store) forces read-then-write
//      workloads into the fallback; ASF2's dynamic expansion is what makes
//      ASF-TM possible without software versioning.
//
// All study cells are independent simulations, so they are submitted to one
// SweepRunner up front and formatted from the joined results (--jobs).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/harness/experiment.h"
#include "src/harness/run_threads.h"
#include "src/harness/sweep.h"
#include "src/tm/lock_elision.h"
#include "src/tm/tiny_stm.h"

namespace {

// Study 3's library barrier: IntsetConfig::barrier_instructions for a
// dynamically linked TM library.
constexpr int kLibraryBarrier = 12;

// The per-barrier instruction count a study-3 row runs with, as
// harness::MakeRuntime applies IntsetConfig::barrier_instructions: it
// replaces the hardware runtime's inlined barrier and adds to TinySTM's
// load/store barriers.
std::string BarrierLabel(harness::RuntimeKind rt, int barrier) {
  const std::string mode = barrier < 0 ? " (inlined)" : " (library)";
  if (rt == harness::RuntimeKind::kTinyStm) {
    const asftm::TinyStmParams p;
    const uint32_t add = barrier < 0 ? 0 : static_cast<uint32_t>(barrier);
    return std::to_string(p.load_instructions + add) + " load / " +
           std::to_string(p.store_instructions + add) + " store" + mode;
  }
  return std::to_string(barrier < 0 ? asftm::HwCosts().barrier_instructions
                                    : static_cast<uint32_t>(barrier)) +
         mode;
}

// Study 7 runs outside the intset harness: one elidable lock over disjoint
// per-thread critical sections.
struct ElisionCell {
  double ops_per_us = 0.0;
  uint64_t real_acquisitions = 0;
};

ElisionCell RunElisionCell(bool elide, uint64_t ops) {
  asf::MachineParams mp = harness::PaperMachineParams(asf::AsfVariant::Llb8(), 8, true);
  asf::Machine m(mp);
  asftm::ElisionParams ep;
  ep.always_acquire = !elide;
  asftm::ElidableLock lock(m, ep);
  struct alignas(64) Slot {
    uint64_t value = 0;
  };
  auto* slots = m.arena().NewArray<Slot>(8);
  m.mem().PretouchPages(reinterpret_cast<uint64_t>(slots), 8 * sizeof(Slot));
  harness::RunThreads(m, 8, [&](asfsim::SimThread& t, uint32_t tid) -> asfsim::Task<void> {
    for (uint64_t i = 0; i < ops; ++i) {
      co_await lock.CriticalSection(t, [&](bool elided) -> asfsim::Task<void> {
        auto kind_load = elided ? asfsim::AccessKind::kTxLoad : asfsim::AccessKind::kLoad;
        auto kind_store = elided ? asfsim::AccessKind::kTxStore : asfsim::AccessKind::kStore;
        co_await t.Access(kind_load, &slots[tid].value, 8);
        uint64_t v = slots[tid].value;
        t.core().WorkInstructions(20);
        co_await t.Store(kind_store, &slots[tid].value, 8, v + 1);
      });
    }
  });
  ElisionCell cell;
  cell.ops_per_us = static_cast<double>(8 * ops) * 2200.0 /
                    static_cast<double>(m.scheduler().MaxCycle());
  cell.real_acquisitions = lock.real_acquisitions();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Options opt = benchutil::ParseArgs(argc, argv);
  benchutil::JsonReport report("ablation_design_choices", opt);
  const uint64_t ops = opt.quick ? 300 : 1200;

  harness::SweepRunner sweep(opt.jobs);

  // ---- Submission phase: every cell of every study, in display order. ----
  for (int serial : {1, 0}) {
    harness::IntsetConfig cfg;
    cfg.structure = "rb";
    cfg.key_range = 8192;
    cfg.threads = 8;
    cfg.ops_per_thread = ops;
    cfg.variant = asf::AsfVariant::Llb8();
    cfg.contention_policy = "exp-backoff:capacity-serial=" + std::to_string(serial);
    sweep.SubmitIntset(benchutil::Seeded(cfg, opt));
  }

  for (int retries : {1, 4, 8, 32}) {
    harness::IntsetConfig cfg;
    cfg.structure = "list";
    cfg.key_range = 28;
    cfg.threads = 8;
    cfg.ops_per_thread = ops;
    cfg.variant = asf::AsfVariant::Llb256();
    cfg.contention_policy = "exp-backoff:retries=" + std::to_string(retries);
    sweep.SubmitIntset(benchutil::Seeded(cfg, opt));
  }

  for (auto rt : {harness::RuntimeKind::kAsfTm, harness::RuntimeKind::kTinyStm}) {
    for (int barrier : {-1, kLibraryBarrier}) {
      harness::IntsetConfig cfg;
      cfg.structure = "rb";
      cfg.key_range = 1024;
      cfg.threads = 1;
      cfg.ops_per_thread = ops;
      cfg.runtime = rt;
      cfg.barrier_instructions = barrier;
      sweep.SubmitIntset(benchutil::Seeded(cfg, opt));
    }
  }

  for (auto rt : {harness::RuntimeKind::kAsfTm, harness::RuntimeKind::kGlobalLock}) {
    for (uint32_t threads : benchutil::ThreadCounts()) {
      harness::IntsetConfig cfg;
      cfg.structure = "hash";
      cfg.key_range = 8192;
      cfg.update_pct = 100;
      cfg.threads = threads;
      cfg.ops_per_thread = ops;
      cfg.runtime = rt;
      sweep.SubmitIntset(benchutil::Seeded(cfg, opt));
    }
  }

  for (auto rt : {harness::RuntimeKind::kAsfTm, harness::RuntimeKind::kPhasedTm}) {
    harness::IntsetConfig cfg;
    cfg.structure = "rb";
    cfg.key_range = 8192;
    cfg.threads = 8;
    cfg.ops_per_thread = ops;
    cfg.variant = asf::AsfVariant::Llb8();
    cfg.runtime = rt;
    sweep.SubmitIntset(benchutil::Seeded(cfg, opt));
  }

  for (uint32_t ways : {2u, 4u, 8u}) {
    harness::IntsetConfig cfg;
    cfg.structure = "list";
    cfg.key_range = 512;
    cfg.threads = 8;
    cfg.ops_per_thread = ops;
    cfg.variant = asf::AsfVariant::Llb256WithL1();
    // Custom machine parameters: vary the L1 associativity only.
    asf::MachineParams mp =
        harness::PaperMachineParams(cfg.variant, cfg.threads, cfg.timer_interrupts);
    mp.mem.l1.ways = ways;
    sweep.SubmitIntsetOnParams(benchutil::Seeded(cfg, opt), mp);
  }

  ElisionCell elision[2];
  {
    const uint64_t elision_ops = ops;
    sweep.Submit([&elision, elision_ops]() { elision[0] = RunElisionCell(true, elision_ops); });
    sweep.Submit([&elision, elision_ops]() { elision[1] = RunElisionCell(false, elision_ops); });
  }

  for (bool asf1 : {false, true}) {
    harness::IntsetConfig cfg;
    cfg.structure = "rb";
    cfg.key_range = 1024;
    cfg.threads = 8;
    cfg.ops_per_thread = ops;
    cfg.variant = asf1 ? asf::AsfVariant::Asf1Llb256() : asf::AsfVariant::Llb256();
    sweep.SubmitIntset(benchutil::Seeded(cfg, opt));
  }

  sweep.Run();

  // ---- Formatting phase: consume intset results in submission order. ----
  std::printf("Ablation studies of ASF-TM design choices\n\n");
  size_t job = 0;

  {
    asfcommon::Table table(
        "1. Capacity-abort policy (rb-tree range=8192, LLB-8, 8 threads, tx/us)");
    table.SetHeader({"policy", "tx/us", "serial-commits", "hw-commits", "capacity-aborts"});
    for (int serial : {1, 0}) {
      const harness::IntsetResult& r = sweep.intset(job++);
      table.AddRow({serial != 0 ? "serialize on capacity (paper)" : "retry in hardware",
                    asfcommon::Table::Num(r.tx_per_us, 2),
                    asfcommon::Table::Int(static_cast<long long>(r.tm.serial_commits)),
                    asfcommon::Table::Int(static_cast<long long>(r.tm.hw_commits)),
                    asfcommon::Table::Int(static_cast<long long>(
                        r.tm.Aborts(asfcommon::AbortCause::kCapacity)))});
    }
    report.Print(table);
  }

  {
    asfcommon::Table table(
        "2. Contention retry budget (linked list range=28, LLB-256, 8 threads)");
    table.SetHeader({"max retries", "tx/us", "contention-aborts", "serial-commits"});
    for (int retries : {1, 4, 8, 32}) {
      const harness::IntsetResult& r = sweep.intset(job++);
      table.AddRow({std::to_string(retries), asfcommon::Table::Num(r.tx_per_us, 2),
                    asfcommon::Table::Int(static_cast<long long>(
                        r.tm.Aborts(asfcommon::AbortCause::kContention))),
                    asfcommon::Table::Int(static_cast<long long>(r.tm.serial_commits))});
    }
    report.Print(table);
  }

  {
    asfcommon::Table table(
        "3. ABI dispatch cost (rb-tree range=1024, 1 thread): inlined (LTO) vs "
        "dynamic library barriers");
    table.SetHeader({"runtime", "barrier-instr", "tx/us"});
    for (auto rt : {harness::RuntimeKind::kAsfTm, harness::RuntimeKind::kTinyStm}) {
      for (int barrier : {-1, kLibraryBarrier}) {
        const harness::IntsetResult& r = sweep.intset(job++);
        table.AddRow({harness::RuntimeKindName(rt), BarrierLabel(rt, barrier),
                      asfcommon::Table::Num(r.tx_per_us, 2)});
      }
    }
    report.Print(table);
  }

  {
    asfcommon::Table table("4. ASF-TM vs a single global lock (hash set range=8192, 100% upd.)");
    table.SetHeader({"runtime", "1thr", "2thr", "4thr", "8thr"});
    for (auto rt : {harness::RuntimeKind::kAsfTm, harness::RuntimeKind::kGlobalLock}) {
      std::vector<std::string> row = {harness::RuntimeKindName(rt)};
      for (uint32_t threads : benchutil::ThreadCounts()) {
        (void)threads;
        row.push_back(asfcommon::Table::Num(sweep.intset(job++).tx_per_us, 2));
      }
      table.AddRow(row);
    }
    report.Print(table);
  }

  {
    asfcommon::Table table(
        "5. Fallback strategy for over-capacity transactions (rb-tree range=8192, "
        "LLB-8, 8 threads)");
    table.SetHeader({"fallback", "tx/us", "hw-commits", "serial-commits", "stm-commits"});
    for (auto rt : {harness::RuntimeKind::kAsfTm, harness::RuntimeKind::kPhasedTm}) {
      const harness::IntsetResult& r = sweep.intset(job++);
      table.AddRow({rt == harness::RuntimeKind::kAsfTm ? "serial-irrevocable (paper)"
                                                       : "PhasedTM software phase",
                    asfcommon::Table::Num(r.tx_per_us, 2),
                    asfcommon::Table::Int(static_cast<long long>(r.tm.hw_commits)),
                    asfcommon::Table::Int(static_cast<long long>(r.tm.serial_commits)),
                    asfcommon::Table::Int(static_cast<long long>(r.tm.stm_commits))});
    }
    report.Print(table);
  }

  {
    asfcommon::Table table(
        "6. L1 associativity sensitivity of read-set tracking "
        "(list range=512, LLB-256 w/ L1, 8 threads)");
    table.SetHeader({"L1 configuration", "tx/us", "capacity-aborts", "serial-commits"});
    for (uint32_t ways : {2u, 4u, 8u}) {
      const harness::IntsetResult& r = sweep.intset(job++);
      table.AddRow({std::to_string(ways) + "-way 64 KiB",
                    asfcommon::Table::Num(r.tx_per_us, 2),
                    asfcommon::Table::Int(static_cast<long long>(
                        r.tm.Aborts(asfcommon::AbortCause::kCapacity))),
                    asfcommon::Table::Int(static_cast<long long>(r.tm.serial_commits))});
    }
    report.Print(table);
  }

  {
    asfcommon::Table table(
        "7. Lock elision on disjoint critical sections (1 lock, 8 threads, ops/us)");
    table.SetHeader({"mode", "ops/us", "real-acquisitions"});
    for (int i = 0; i < 2; ++i) {
      table.AddRow({i == 0 ? "elided (ASF)" : "conventional lock",
                    asfcommon::Table::Num(elision[i].ops_per_us, 2),
                    asfcommon::Table::Int(static_cast<long long>(elision[i].real_acquisitions))});
    }
    report.Print(table);
  }

  {
    asfcommon::Table table(
        "8. ASF1 (static set) vs ASF2 (dynamic expansion) — rb-tree range=1024, "
        "8 threads");
    table.SetHeader({"revision", "tx/us", "hw-commits", "serial-commits"});
    for (bool asf1 : {false, true}) {
      const harness::IntsetResult& r = sweep.intset(job++);
      table.AddRow({asf1 ? "ASF1 (static set)" : "ASF2 (paper)",
                    asfcommon::Table::Num(r.tx_per_us, 2),
                    asfcommon::Table::Int(static_cast<long long>(r.tm.hw_commits)),
                    asfcommon::Table::Int(static_cast<long long>(r.tm.serial_commits))});
    }
    report.Print(table);
  }
  return report.Write() ? 0 : 1;
}
