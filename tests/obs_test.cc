// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests for the observability layer: JSON round-trips and — the
// load-bearing property — that offline analysis of an exported
// trace reproduces the online cycle accounting of a full RunIntset run
// exactly, per category, and that installing the observers changes no
// simulated result at all.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/tx_event.h"
#include "src/sim/trace.h"

namespace {

using asfcommon::AbortCause;
using asfobs::AnalyzeTrace;
using asfobs::JsonValue;
using asfobs::TraceAnalysis;
using asfobs::TxEvent;
using asfobs::TxEventKind;
using asfobs::TxEventLog;
using asfobs::TxMode;
using asfsim::CycleCategory;

constexpr size_t kNumCategories = static_cast<size_t>(CycleCategory::kNumCategories);

// --- JSON writer/parser round-trip ------------------------------------------

TEST(Json, WriterParserRoundTrip) {
  std::string out;
  asfobs::JsonWriter w(&out);
  w.BeginObject();
  w.KV("name", "quo\"te\n");
  w.KV("count", static_cast<uint64_t>(123456789));
  w.KV("negative", static_cast<int64_t>(-42));
  w.KV("pi", 3.5);
  w.KV("flag", true);
  w.Key("list");
  w.BeginArray();
  w.UInt(1);
  w.UInt(2);
  w.Null();
  w.EndArray();
  w.EndObject();

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(out, &doc, &error)) << error;
  EXPECT_EQ(doc.Get("name")->AsString(), "quo\"te\n");
  EXPECT_EQ(doc.Get("count")->AsUInt(), 123456789u);
  EXPECT_EQ(doc.Get("negative")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(doc.Get("pi")->AsDouble(), 3.5);
  EXPECT_TRUE(doc.Get("flag")->AsBool());
  ASSERT_EQ(doc.Get("list")->size(), 3u);
  EXPECT_EQ(doc.Get("list")->at(1).AsUInt(), 2u);
  EXPECT_TRUE(doc.Get("list")->at(2).IsNull());
}

TEST(Json, ParseRejectsMalformedInput) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }", &doc, &error));
  EXPECT_FALSE(JsonValue::Parse("[1, 2", &doc, &error));
  EXPECT_FALSE(JsonValue::Parse("", &doc, &error));
  EXPECT_FALSE(JsonValue::Parse("{} trailing", &doc, &error));
}

// --- Full-stack: observers on a real RunIntset run --------------------------

harness::IntsetConfig ContendedConfig() {
  harness::IntsetConfig cfg;
  cfg.structure = "list";
  cfg.key_range = 64;
  cfg.update_pct = 100;  // All updates: plenty of contention aborts.
  cfg.threads = 8;
  cfg.ops_per_thread = 120;
  cfg.variant = asf::AsfVariant::Llb256();
  cfg.timer_interrupts = true;
  return cfg;
}

TEST(ObsFullStack, OfflineAnalysisMatchesOnlineBreakdownExactly) {
  asfsim::Tracer tracer;
  TxEventLog log;
  harness::IntsetConfig cfg = ContendedConfig();
  cfg.obs.tracer = &tracer;
  cfg.obs.tx_sink = &log;
  harness::IntsetResult r = harness::RunIntset(cfg);
  ASSERT_TRUE(r.invariant_violation.empty()) << r.invariant_violation;
  ASSERT_GT(r.committed_tx, 0u);

  TraceAnalysis a = AnalyzeTrace(tracer.spans(), log.events());
  // The acceptance criterion: per-category cycle totals from offline trace
  // analysis match the online accounting bit for bit.
  for (size_t i = 0; i < kNumCategories; ++i) {
    EXPECT_EQ(a.category_cycles[i], r.breakdown.cycles[i])
        << "category " << asfsim::CycleCategoryName(static_cast<CycleCategory>(i));
  }
  EXPECT_EQ(a.total_cycles, r.breakdown.Total());

  // Lifecycle events reproduce the runtime's own statistics.
  EXPECT_EQ(a.total_commits, r.tm.Commits());
  EXPECT_EQ(a.total_aborts, r.tm.TotalAborts());
  for (size_t c = 0; c < a.aborts_by_cause.size(); ++c) {
    EXPECT_EQ(a.aborts_by_cause[c], r.tm.aborts[c]) << "cause " << c;
  }
  EXPECT_DOUBLE_EQ(a.AbortRatePercent(), r.tm.AbortRatePercent());

  // Every attempt opens with one kTxBegin, and each commit event names its
  // mode.
  uint64_t begins = 0;
  uint64_t hw_commits = 0;
  uint64_t serial_commits = 0;
  uint64_t max_hw_read_set = 0;
  for (const TxEvent& ev : log.events()) {
    if (ev.kind == TxEventKind::kTxBegin) {
      ++begins;
    } else if (ev.kind == TxEventKind::kTxCommit && ev.mode == TxMode::kHardware) {
      ++hw_commits;
      max_hw_read_set = std::max(max_hw_read_set, ev.arg0);
    } else if (ev.kind == TxEventKind::kTxCommit && ev.mode == TxMode::kSerial) {
      ++serial_commits;
    }
  }
  EXPECT_EQ(begins, a.total_commits + a.total_aborts);
  EXPECT_EQ(hw_commits, r.tm.hw_commits);
  EXPECT_EQ(serial_commits, r.tm.serial_commits);
  // A committed hardware transaction protects at least one line.
  ASSERT_GT(r.tm.hw_commits, 0u);
  EXPECT_GT(max_hw_read_set, 0u);
}

TEST(ObsFullStack, ExportedTraceRoundTripsAndTotalsMatch) {
  asfsim::Tracer tracer;
  TxEventLog log;
  harness::IntsetConfig cfg = ContendedConfig();
  cfg.obs.tracer = &tracer;
  cfg.obs.tx_sink = &log;
  harness::IntsetResult r = harness::RunIntset(cfg);

  asfobs::PerfettoInput in;
  in.benchmark = "obs_test";
  in.num_cores = cfg.threads;
  in.mem_events = &tracer.events();
  in.spans = &tracer.spans();
  in.tx_events = &log.events();
  std::string json = asfobs::WritePerfettoTrace(in);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(json, &doc, &error)) << error;
  const JsonValue* events = doc.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->IsArray());
  EXPECT_GT(events->size(), 0u);

  // The embedded raw data reconstructs the exact inputs.
  std::vector<asfsim::CycleSpan> spans;
  std::vector<asfobs::TxEvent> txs;
  ASSERT_TRUE(asfobs::LoadAsfSection(doc, &spans, &txs, &error)) << error;
  ASSERT_EQ(spans.size(), tracer.spans().size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].start, tracer.spans()[i].start);
    EXPECT_EQ(spans[i].cycles, tracer.spans()[i].cycles);
    EXPECT_EQ(spans[i].core, tracer.spans()[i].core);
    EXPECT_EQ(spans[i].category, tracer.spans()[i].category);
    EXPECT_EQ(spans[i].attempt, tracer.spans()[i].attempt);
  }
  ASSERT_EQ(txs.size(), log.events().size());

  // The stored per-category totals equal the online CycleBreakdown exactly.
  const JsonValue* totals = doc.Get("asf")->Get("categoryTotals");
  ASSERT_NE(totals, nullptr);
  for (size_t i = 0; i < kNumCategories; ++i) {
    const char* name = asfsim::CycleCategoryName(static_cast<CycleCategory>(i));
    const JsonValue* v = totals->Get(name);
    ASSERT_NE(v, nullptr) << name;
    EXPECT_EQ(v->AsUInt(), r.breakdown.cycles[i]) << name;
  }
}

TEST(ObsFullStack, ObserversDoNotPerturbTheSimulation) {
  harness::IntsetConfig cfg = ContendedConfig();
  harness::IntsetResult bare = harness::RunIntset(cfg);

  asfsim::Tracer tracer;
  TxEventLog log;
  cfg.obs.tracer = &tracer;
  cfg.obs.tx_sink = &log;
  harness::IntsetResult observed = harness::RunIntset(cfg);

  // Observers are host-side: the simulated run must be bit-identical.
  EXPECT_EQ(observed.measure_cycles, bare.measure_cycles);
  EXPECT_EQ(observed.committed_tx, bare.committed_tx);
  EXPECT_DOUBLE_EQ(observed.tx_per_us, bare.tx_per_us);
  EXPECT_EQ(observed.tm.hw_commits, bare.tm.hw_commits);
  EXPECT_EQ(observed.tm.TotalAborts(), bare.tm.TotalAborts());
  for (size_t i = 0; i < kNumCategories; ++i) {
    EXPECT_EQ(observed.breakdown.cycles[i], bare.breakdown.cycles[i]);
  }
}

TEST(ObsFullStack, SummarizeAgreesWithOnlineAccounting) {
  // Single-threaded, no timer interrupts: no aborts, so no category is
  // reclassified and the per-category memory latencies must be a subset of
  // the per-category cycle totals.
  asfsim::Tracer tracer;
  harness::IntsetConfig cfg;
  cfg.structure = "hash";
  cfg.key_range = 256;
  cfg.threads = 1;
  cfg.ops_per_thread = 300;
  cfg.timer_interrupts = false;
  cfg.obs.tracer = &tracer;
  harness::IntsetResult r = harness::RunIntset(cfg);
  ASSERT_EQ(r.tm.TotalAborts(), 0u);

  asfsim::TraceSummary s = asfsim::Summarize(tracer.events());
  EXPECT_EQ(s.total_ops, tracer.events().size());
  EXPECT_GT(s.total_ops, 0u);
  uint64_t latency_sum = 0;
  for (size_t i = 0; i < kNumCategories; ++i) {
    EXPECT_LE(s.cycles_by_category[i], r.breakdown.cycles[i])
        << "category " << asfsim::CycleCategoryName(static_cast<CycleCategory>(i));
    latency_sum += s.cycles_by_category[i];
  }
  EXPECT_EQ(latency_sum, s.total_latency);
  EXPECT_LE(s.total_latency, r.breakdown.Total());
  EXPECT_LE(s.first_cycle, s.last_cycle);
}

TEST(ObsFullStack, MeasurementResetDropsWarmupEvents) {
  // The population phase runs transactions too; the barrier reset must drop
  // them so the analysis sees exactly the measured window. If warm-up events
  // leaked, commits would exceed the measured committed_tx.
  asfsim::Tracer tracer;
  TxEventLog log;
  harness::IntsetConfig cfg = ContendedConfig();
  cfg.obs.tracer = &tracer;
  cfg.obs.tx_sink = &log;
  harness::IntsetResult r = harness::RunIntset(cfg);

  TraceAnalysis a = AnalyzeTrace(tracer.spans(), log.events());
  EXPECT_EQ(a.total_commits, r.tm.Commits());
  // Every recorded span and event lies inside the measured window's clock
  // range (the clock is monotone and the reset happened at the barrier).
  ASSERT_FALSE(tracer.spans().empty());
  uint64_t reset_cycle = a.first_cycle;
  for (const asfobs::TxEvent& ev : log.events()) {
    EXPECT_GE(ev.cycle, reset_cycle);
  }
}

}  // namespace
