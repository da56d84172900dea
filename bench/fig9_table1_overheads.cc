// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Reproduces Table 1 and Figure 9: single-thread breakdown of cycles spent
// inside transactions for ASF-TM (LLB-256) versus TinySTM, per IntegerSet
// structure (linked list / skip list / red-black tree at 20% updates, hash
// set at 100% updates; size 128). Table rows match the paper's categories:
// Non-instr. code, Instr. app. code, Abort/restart, Tx load/store,
// Tx start/commit, with the STM/ASF ratio per row. Figure 9 is the same
// data normalized to the STM total of each structure.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/harness/experiment.h"
#include "src/harness/sweep.h"
#include "src/sim/core.h"

namespace {

using asfsim::CycleCategory;

struct Workload {
  const char* title;
  const char* structure;
  uint32_t update_pct;
};

harness::IntsetConfig MakeConfig(const Workload& w, harness::RuntimeKind rt, uint64_t ops) {
  harness::IntsetConfig cfg;
  cfg.structure = w.structure;
  cfg.key_range = 256;
  cfg.initial_size = 128;
  cfg.update_pct = w.update_pct;
  cfg.threads = 1;
  cfg.ops_per_thread = ops;
  cfg.runtime = rt;
  cfg.variant = asf::AsfVariant::Llb256();
  cfg.collect_latency = true;
  return cfg;
}

std::string Ratio(uint64_t asf, uint64_t stm) {
  if (asf == 0) {
    return stm == 0 ? "-" : "inf";
  }
  return asfcommon::Table::Num(static_cast<double>(stm) / static_cast<double>(asf), 2);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::Options opt = benchutil::ParseArgs(argc, argv);
  benchutil::JsonReport report("fig9_table1_overheads", opt);
  const uint64_t ops = opt.quick ? 1000 : 4000;

  const Workload workloads[] = {
      {"linked list / 20% / 128", "list", 20},
      {"skip list / 20% / 128", "skip", 20},
      {"red-black tree / 20% / 128", "rb", 20},
      {"hash set / 100% / 128", "hash", 100},
  };

  std::printf(
      "Table 1 / Figure 9 reproduction: single-thread breakdown of cycles\n"
      "spent inside transactions, ASF-TM (LLB-256) vs TinySTM.\n\n");

  harness::SweepRunner sweep(opt.jobs);
  for (const Workload& w : workloads) {
    sweep.SubmitIntset(benchutil::Seeded(MakeConfig(w, harness::RuntimeKind::kAsfTm, ops), opt));
    sweep.SubmitIntset(benchutil::Seeded(MakeConfig(w, harness::RuntimeKind::kTinyStm, ops), opt));
  }
  sweep.Run();

  size_t job = 0;
  for (const Workload& w : workloads) {
    const harness::IntsetResult& asf = sweep.intset(job++);
    const harness::IntsetResult& stm = sweep.intset(job++);

    asfcommon::Table table(std::string("Table 1: ") + w.title);
    table.SetHeader({"category", "ASF", "STM", "Ratio (STM/ASF)"});
    struct Row {
      const char* name;
      CycleCategory cat;
    };
    const Row rows[] = {
        {"Non-instr. code", CycleCategory::kTxNonInstr},
        {"Instr. app. code", CycleCategory::kTxAppCode},
        {"Abort/restart", CycleCategory::kTxAbortWaste},
        {"Tx load/store", CycleCategory::kTxLoadStore},
        {"Tx start/commit", CycleCategory::kTxStartCommit},
    };
    uint64_t asf_total = 0;
    uint64_t stm_total = 0;
    for (const Row& r : rows) {
      uint64_t a = asf.breakdown.At(r.cat);
      uint64_t s = stm.breakdown.At(r.cat);
      asf_total += a;
      stm_total += s;
      table.AddRow({r.name, asfcommon::Table::Int(static_cast<long long>(a)),
                    asfcommon::Table::Int(static_cast<long long>(s)), Ratio(a, s)});
    }
    table.AddRow({"TOTAL (in-tx)", asfcommon::Table::Int(static_cast<long long>(asf_total)),
                  asfcommon::Table::Int(static_cast<long long>(stm_total)),
                  Ratio(asf_total, stm_total)});
    report.Print(table);

    // Figure 9: the same breakdown normalized to the STM total.
    asfcommon::Table fig("Figure 9: " + std::string(w.title) + " (normalized to STM total)");
    fig.SetHeader({"category", "ASF", "STM"});
    for (const Row& r : rows) {
      double denom = static_cast<double>(stm_total);
      fig.AddRow({r.name,
                  asfcommon::Table::Num(static_cast<double>(asf.breakdown.At(r.cat)) / denom, 3),
                  asfcommon::Table::Num(static_cast<double>(stm.breakdown.At(r.cat)) / denom, 3)});
    }
    report.Print(fig);

    // Per-block latency of the same two runs: the start/commit and
    // load/store overheads above show up directly in the percentiles.
    asfcommon::Table ltab = benchutil::LatencyTable(
        std::string(w.title) + " [latency]",
        {{"ASF-TM (LLB-256)", asf.latency}, {"TinySTM", stm.latency}});
    report.Print(ltab);
    report.AddLatency(std::string(w.structure) + "/asf-tm", asf.latency);
    report.AddLatency(std::string(w.structure) + "/tiny-stm", stm.latency);
  }
  return report.Write() ? 0 : 1;
}
