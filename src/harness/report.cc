// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/harness/report.h"

#include "src/sim/core.h"

namespace harness {

using asfobs::JsonWriter;

namespace {

void WriteTxStats(JsonWriter& w, const asftm::TxStats& tm) {
  w.BeginObject();
  w.KV("txStarted", tm.tx_started);
  w.KV("hwAttempts", tm.hw_attempts);
  w.KV("stmAttempts", tm.stm_attempts);
  w.KV("serialAttempts", tm.serial_attempts);
  w.KV("hwCommits", tm.hw_commits);
  w.KV("serialCommits", tm.serial_commits);
  w.KV("stmCommits", tm.stm_commits);
  w.KV("seqCommits", tm.seq_commits);
  w.KV("commits", tm.Commits());
  w.KV("totalAttempts", tm.TotalAttempts());
  w.KV("totalAborts", tm.TotalAborts());
  w.KV("abortRatePercent", tm.AbortRatePercent());
  w.KV("backoffCycles", tm.backoff_cycles);
  w.Key("aborts");
  w.BeginObject();
  for (size_t i = 1; i < tm.aborts.size(); ++i) {
    if (tm.aborts[i] != 0) {
      w.KV(asfcommon::AbortCauseName(static_cast<asfcommon::AbortCause>(i)), tm.aborts[i]);
    }
  }
  w.EndObject();
  w.EndObject();
}

void WriteBreakdown(JsonWriter& w, const CycleBreakdown& breakdown) {
  w.BeginObject();
  for (size_t i = 0; i < breakdown.cycles.size(); ++i) {
    w.KV(asfsim::CycleCategoryName(static_cast<asfsim::CycleCategory>(i)), breakdown.cycles[i]);
  }
  w.KV("total", breakdown.Total());
  w.EndObject();
}

}  // namespace

void WriteIntsetReport(JsonWriter& w, const IntsetConfig& cfg, const IntsetResult& r) {
  w.BeginObject();
  w.Key("config");
  w.BeginObject();
  w.KV("structure", cfg.structure);
  w.KV("keyRange", cfg.key_range);
  w.KV("updatePct", cfg.update_pct);
  w.KV("threads", cfg.threads);
  w.KV("opsPerThread", cfg.ops_per_thread);
  w.KV("runtime", RuntimeKindName(cfg.runtime));
  w.KV("variant", cfg.variant.Name());
  w.KV("seed", cfg.seed);
  w.KV("timerInterrupts", cfg.timer_interrupts);
  w.EndObject();
  w.Key("result");
  w.BeginObject();
  w.KV("committedTx", r.committed_tx);
  w.KV("measureCycles", r.measure_cycles);
  w.KV("txPerUs", r.tx_per_us);
  w.Key("tm");
  WriteTxStats(w, r.tm);
  w.Key("breakdown");
  WriteBreakdown(w, r.breakdown);
  if (cfg.collect_latency) {
    w.Key("latency");
    asfobs::WriteLatencyJson(w, r.latency);
    w.Key("heatmap");
    asfobs::WriteHeatmapJson(w, r.heatmap, /*top_k=*/10);
  }
  w.EndObject();
  w.EndObject();
}

void WriteStampReport(JsonWriter& w, const std::string& app, const StampConfig& cfg,
                      const StampResult& r) {
  w.BeginObject();
  w.Key("config");
  w.BeginObject();
  w.KV("app", app);
  w.KV("runtime", RuntimeKindName(cfg.runtime));
  w.KV("variant", cfg.variant.Name());
  w.KV("threads", cfg.threads);
  w.KV("scale", cfg.scale);
  w.KV("seed", cfg.seed);
  w.KV("timerInterrupts", cfg.timer_interrupts);
  w.EndObject();
  w.Key("result");
  w.BeginObject();
  w.KV("execCycles", r.exec_cycles);
  w.KV("execMs", r.exec_ms);
  w.KV("workCycles", r.work_cycles);
  w.KV("validation", r.validation);
  w.KV("totalInjected", r.total_injected);
  w.Key("tm");
  WriteTxStats(w, r.tm);
  w.Key("breakdown");
  WriteBreakdown(w, r.breakdown);
  if (cfg.collect_latency) {
    w.Key("latency");
    asfobs::WriteLatencyJson(w, r.latency);
    w.Key("heatmap");
    asfobs::WriteHeatmapJson(w, r.heatmap, /*top_k=*/10);
  }
  w.EndObject();
  w.EndObject();
}

std::string IntsetReportJson(const IntsetConfig& cfg, const IntsetResult& r) {
  std::string out;
  JsonWriter w(&out, /*pretty=*/true);
  WriteIntsetReport(w, cfg, r);
  out.push_back('\n');
  return out;
}

std::string StampReportJson(const std::string& app, const StampConfig& cfg,
                            const StampResult& r) {
  std::string out;
  JsonWriter w(&out, /*pretty=*/true);
  WriteStampReport(w, app, cfg, r);
  out.push_back('\n');
  return out;
}

}  // namespace harness
