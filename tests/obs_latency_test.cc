// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests for the second-generation observability layer: tail-latency
// percentiles, the conflict-edge hot-line heatmap, and abort causality.
// The load-bearing properties:
//   * offline replay of the lifecycle-event stream reproduces the online
//     LatencyRecorder / HeatmapRecorder results bit for bit, across every
//     runtime and hardware variant;
//   * enabling collection changes no simulated result (obs-off digests);
//   * Percentile edge cases (empty, single sample, all-overflow) follow the
//     documented contract of LatencyStats::Percentile.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/fault_schedule.h"
#include "src/harness/experiment.h"
#include "src/harness/stamp_driver.h"
#include "src/harness/stress.h"
#include "src/obs/export.h"
#include "src/obs/heatmap.h"
#include "src/obs/json.h"
#include "src/obs/latency.h"
#include "src/obs/tx_event.h"

namespace {

using asfobs::ComputeHeatmapFromEvents;
using asfobs::ComputeLatencyFromEvents;
using asfobs::HeatmapStats;
using asfobs::LatencyStats;
using asfobs::TxEvent;
using asfobs::TxEventKind;
using asfobs::TxEventLog;
using asfobs::TxMode;

// --- Percentile contract (satellite: overflow behavior) ---------------------

TEST(Percentile, LatencyStatsMirrorsHistogramContract) {
  LatencyStats s;
  EXPECT_EQ(s.Percentile(50.0), 0u);  // Empty.
  s.Observe(100);  // Single sample: bucket bound 128.
  EXPECT_EQ(s.Percentile(0.0), 128u);
  EXPECT_EQ(s.Percentile(99.9), 128u);
  LatencyStats over;
  over.Observe(UINT64_MAX / 2);  // Past the last bound: overflow bucket.
  EXPECT_EQ(over.buckets[LatencyStats::kNumBuckets - 1], 1u);
  EXPECT_EQ(over.Percentile(50.0), UINT64_MAX / 2);  // max(), not a bound.
}

TEST(Percentile, LatencyStatsQuantilesAreMonotone) {
  LatencyStats s;
  for (uint64_t v = 1; v <= 10000; v += 7) {
    s.Observe(v);
  }
  uint64_t p50 = s.Percentile(50.0);
  uint64_t p90 = s.Percentile(90.0);
  uint64_t p99 = s.Percentile(99.0);
  uint64_t p999 = s.Percentile(99.9);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, p999);
  EXPECT_GT(p50, 0u);
}

TEST(Percentile, MergePreservesCountsAndExtremes) {
  LatencyStats a;
  LatencyStats b;
  a.Observe(10);
  a.Observe(100000);
  b.Observe(50);
  LatencyStats m = a;
  m.Merge(b);
  EXPECT_EQ(m.count, 3u);
  EXPECT_EQ(m.min, 10u);
  EXPECT_EQ(m.max, 100000u);
  EXPECT_EQ(m.sum, 10u + 100000u + 50u);
}

// --- Online vs offline bit-equality -----------------------------------------

harness::IntsetConfig ContendedConfig(harness::RuntimeKind rt) {
  harness::IntsetConfig cfg;
  cfg.structure = "hash";
  cfg.key_range = 128;
  cfg.update_pct = 100;
  cfg.threads = 8;
  cfg.ops_per_thread = 150;
  cfg.runtime = rt;
  cfg.variant = asf::AsfVariant::Llb256();
  cfg.collect_latency = true;
  return cfg;
}

// Region names are resolved from harness-side registration that the offline
// replayer cannot see without the RegionMap; normalize before comparing.
HeatmapStats StripRegions(HeatmapStats s) {
  for (auto& [line, hl] : s.lines) {
    hl.region = "-";
  }
  return s;
}

TEST(OfflineReplay, LatencyAndHeatmapMatchOnlineAcrossRuntimes) {
  const harness::RuntimeKind kinds[] = {
      harness::RuntimeKind::kAsfTm,       harness::RuntimeKind::kTinyStm,
      harness::RuntimeKind::kPhasedTm,    harness::RuntimeKind::kLockElision,
      harness::RuntimeKind::kSequential,  harness::RuntimeKind::kGlobalLock,
  };
  for (harness::RuntimeKind rt : kinds) {
    TxEventLog log;
    harness::IntsetConfig cfg = ContendedConfig(rt);
    if (rt == harness::RuntimeKind::kSequential) {
      cfg.threads = 1;
    }
    cfg.obs.tx_sink = &log;
    harness::IntsetResult r = harness::RunIntset(cfg);
    ASSERT_TRUE(r.invariant_violation.empty()) << r.invariant_violation;
    ASSERT_GT(r.latency.count, 0u) << harness::RuntimeKindName(rt);

    // The log sits after the recorders in the sink chain, so it holds
    // exactly the event stream the recorders consumed.
    const std::vector<TxEvent>& events = log.events();
    EXPECT_EQ(ComputeLatencyFromEvents(events), r.latency)
        << "runtime " << harness::RuntimeKindName(rt);
    EXPECT_EQ(ComputeHeatmapFromEvents(events), StripRegions(r.heatmap))
        << "runtime " << harness::RuntimeKindName(rt);
  }
}

TEST(OfflineReplay, HeatmapMatchesOnlineAcrossHardwareVariants) {
  const asf::AsfVariant variants[] = {
      asf::AsfVariant::Llb8(),
      asf::AsfVariant::Llb256(),
      asf::AsfVariant::Llb8WithL1(),
      asf::AsfVariant::Llb256WithL1(),
  };
  for (const auto& variant : variants) {
    TxEventLog log;
    harness::IntsetConfig cfg = ContendedConfig(harness::RuntimeKind::kAsfTm);
    cfg.variant = variant;
    cfg.obs.tx_sink = &log;
    harness::IntsetResult r = harness::RunIntset(cfg);
    EXPECT_EQ(ComputeHeatmapFromEvents(log.events()), StripRegions(r.heatmap))
        << variant.Name();
    EXPECT_EQ(ComputeLatencyFromEvents(log.events()), r.latency) << variant.Name();
  }
}

TEST(OfflineReplay, HeatmapAgreesWithBruteForceEdgeCount) {
  // Independent re-derivation: fold the kConflictEdge events with a plain
  // map, no HeatmapRecorder involved.
  TxEventLog log;
  harness::IntsetConfig cfg = ContendedConfig(harness::RuntimeKind::kAsfTm);
  cfg.variant = asf::AsfVariant::Llb8();  // Small LLB: more conflicts.
  cfg.obs.tx_sink = &log;
  harness::IntsetResult r = harness::RunIntset(cfg);
  ASSERT_GT(r.heatmap.total_edges, 0u);

  std::unordered_map<uint64_t, uint64_t> edges;
  std::unordered_map<uint64_t, uint64_t> reader_victims;
  std::unordered_map<uint64_t, uint64_t> writer_victims;
  uint64_t total = 0;
  for (const TxEvent& ev : log.events()) {
    if (ev.kind != TxEventKind::kConflictEdge) {
      continue;
    }
    ++total;
    ++edges[ev.arg0];
    if (asfobs::ConflictEdgeVictimWasWriter(ev.arg1)) {
      ++writer_victims[ev.arg0];
    } else {
      ++reader_victims[ev.arg0];
    }
  }
  EXPECT_EQ(total, r.heatmap.total_edges);
  EXPECT_EQ(edges.size(), r.heatmap.lines.size());
  for (const auto& [line, hl] : r.heatmap.lines) {
    EXPECT_EQ(hl.edges, edges[line]) << "line " << line;
    EXPECT_EQ(hl.reader_victims, reader_victims[line]) << "line " << line;
    EXPECT_EQ(hl.writer_victims, writer_victims[line]) << "line " << line;
    EXPECT_EQ(hl.reader_victims + hl.writer_victims, hl.edges);
  }
}

TEST(OfflineReplay, ExportedTraceCarriesConflictEdgesAndLatencyRoundTrips) {
  TxEventLog log;
  harness::IntsetConfig cfg = ContendedConfig(harness::RuntimeKind::kAsfTm);
  cfg.variant = asf::AsfVariant::Llb8();
  cfg.obs.tx_sink = &log;
  harness::IntsetResult r = harness::RunIntset(cfg);
  ASSERT_GT(r.heatmap.total_edges, 0u);

  asfobs::PerfettoInput in;
  in.benchmark = "obs_latency_test";
  in.num_cores = cfg.threads;
  in.tx_events = &log.events();
  std::string json = asfobs::WritePerfettoTrace(in);

  asfobs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(asfobs::JsonValue::Parse(json, &doc, &error)) << error;
  std::vector<asfsim::CycleSpan> spans;
  std::vector<TxEvent> txs;
  ASSERT_TRUE(asfobs::LoadAsfSection(doc, &spans, &txs, &error)) << error;
  ASSERT_EQ(txs.size(), log.events().size());

  // The acceptance criterion: replaying the exported file reproduces the
  // online percentiles and the heatmap exactly.
  EXPECT_EQ(ComputeLatencyFromEvents(txs), r.latency);
  EXPECT_EQ(ComputeHeatmapFromEvents(txs), StripRegions(r.heatmap));
}

TEST(OfflineReplay, KeyedStatsPartitionTheAggregate) {
  TxEventLog log;
  harness::IntsetConfig cfg = ContendedConfig(harness::RuntimeKind::kPhasedTm);
  cfg.obs.tx_sink = &log;
  harness::IntsetResult r = harness::RunIntset(cfg);

  asfobs::LatencyRecorder rec;
  asfobs::ReplayLatency(log.events(), &rec);
  EXPECT_EQ(rec.stats(), r.latency);
  uint64_t keyed_count = 0;
  uint64_t keyed_sum = 0;
  for (size_t m = 0; m < static_cast<size_t>(TxMode::kNumModes); ++m) {
    for (bool retried : {false, true}) {
      const LatencyStats& s = rec.keyed(static_cast<TxMode>(m), retried);
      keyed_count += s.count;
      keyed_sum += s.sum;
      if (retried) {
        EXPECT_EQ(s.clean_blocks, 0u);
      } else {
        EXPECT_EQ(s.retried_blocks, 0u);
      }
    }
  }
  EXPECT_EQ(keyed_count, r.latency.count);
  EXPECT_EQ(keyed_sum, r.latency.sum);
}

// --- Collection must not perturb the simulation -----------------------------

TEST(ObsGate, CollectLatencyKeepsIntsetResultsBitIdentical) {
  harness::IntsetConfig cfg = ContendedConfig(harness::RuntimeKind::kAsfTm);
  cfg.collect_latency = false;
  harness::IntsetResult off = harness::RunIntset(cfg);
  cfg.collect_latency = true;
  harness::IntsetResult on = harness::RunIntset(cfg);

  EXPECT_EQ(on.committed_tx, off.committed_tx);
  EXPECT_EQ(on.measure_cycles, off.measure_cycles);
  EXPECT_DOUBLE_EQ(on.tx_per_us, off.tx_per_us);
  EXPECT_EQ(on.tm.Commits(), off.tm.Commits());
  EXPECT_EQ(on.tm.TotalAborts(), off.tm.TotalAborts());
  for (size_t i = 0; i < on.breakdown.cycles.size(); ++i) {
    EXPECT_EQ(on.breakdown.cycles[i], off.breakdown.cycles[i]) << "category " << i;
  }
  EXPECT_GT(on.latency.count, 0u);   // On: populated.
  EXPECT_EQ(off.latency.count, 0u);  // Off: untouched.
}

TEST(ObsGate, CollectLatencyKeepsStressDigestIdentical) {
  harness::StressConfig sc;
  sc.intset.structure = "list";
  sc.intset.key_range = 64;
  sc.intset.update_pct = 100;
  sc.intset.threads = 4;
  sc.intset.ops_per_thread = 100;
  ASSERT_TRUE(asffault::FaultSchedule::Lookup("interrupt-heavy", &sc.schedule));

  sc.intset.collect_latency = false;
  harness::StressResult off = harness::RunStress(sc);
  sc.intset.collect_latency = true;
  harness::StressResult on = harness::RunStress(sc);
  EXPECT_EQ(on.Digest(), off.Digest());
  EXPECT_GT(on.intset.latency.count, 0u);
}

// --- Serial and lock runtimes emit lifecycle events now ---------------------

TEST(SerialRuntimes, SequentialEmitsSerialModeBlocks) {
  TxEventLog log;
  harness::IntsetConfig cfg = ContendedConfig(harness::RuntimeKind::kSequential);
  cfg.threads = 1;
  cfg.obs.tx_sink = &log;
  harness::IntsetResult r = harness::RunIntset(cfg);
  EXPECT_EQ(r.latency.count, r.committed_tx);
  EXPECT_EQ(r.latency.commits_by_mode[static_cast<size_t>(TxMode::kSerial)], r.latency.count);
  EXPECT_EQ(r.latency.aborted_attempts, 0u);
  EXPECT_EQ(r.latency.wasted_cycles, 0u);
  EXPECT_EQ(r.latency.clean_blocks, r.latency.count);
  // One kTxBegin per committed block: no attempt of a serial block aborts.
  uint64_t begins = 0;
  for (const TxEvent& ev : log.events()) {
    begins += ev.kind == TxEventKind::kTxBegin ? 1 : 0;
  }
  EXPECT_EQ(begins, r.committed_tx);
}

TEST(SerialRuntimes, GlobalLockEmitsLockModeBlocks) {
  harness::IntsetConfig cfg = ContendedConfig(harness::RuntimeKind::kGlobalLock);
  harness::IntsetResult r = harness::RunIntset(cfg);
  EXPECT_EQ(r.latency.count, r.committed_tx);
  EXPECT_EQ(r.latency.commits_by_mode[static_cast<size_t>(TxMode::kLock)], r.latency.count);
  // Lock-wait time counts toward block latency, so contended blocks must be
  // visible in the tail.
  EXPECT_GT(r.latency.max, 0u);
}

// --- STAMP fault schedules (satellite: schedule wiring) ---------------------

TEST(StampFaults, ScheduleInjectsAndIsDeterministic) {
  harness::StampConfig cfg;
  cfg.threads = 4;
  cfg.scale = 1;
  cfg.collect_latency = true;
  ASSERT_TRUE(asffault::FaultSchedule::Lookup("interrupt-heavy", &cfg.schedule));

  auto app1 = harness::MakeStampApp("ssca2");
  harness::StampResult r1 = harness::RunStamp(*app1, cfg);
  ASSERT_TRUE(r1.validation.empty()) << r1.validation;
  EXPECT_GT(r1.total_injected, 0u);
  EXPECT_GT(r1.latency.count, 0u);

  auto app2 = harness::MakeStampApp("ssca2");
  harness::StampResult r2 = harness::RunStamp(*app2, cfg);
  EXPECT_EQ(r1.total_injected, r2.total_injected);
  EXPECT_EQ(r1.exec_cycles, r2.exec_cycles);
  EXPECT_EQ(r1.latency, r2.latency);
  for (size_t c = 0; c < r1.injected.size(); ++c) {
    EXPECT_EQ(r1.injected[c], r2.injected[c]) << "cause " << c;
  }
}

TEST(StampFaults, EmptyScheduleInjectsNothing) {
  harness::StampConfig cfg;
  cfg.threads = 2;
  cfg.scale = 1;
  auto app = harness::MakeStampApp("ssca2");
  harness::StampResult r = harness::RunStamp(*app, cfg);
  ASSERT_TRUE(r.validation.empty()) << r.validation;
  EXPECT_EQ(r.total_injected, 0u);
}

// --- Region attribution -----------------------------------------------------

TEST(Heatmap, RegionMapFindsSmallestEnclosingRegion) {
  asfobs::RegionMap map;
  map.Register("outer", 0, 64 * 100);       // Lines 0..99.
  map.Register("inner", 64 * 10, 64 * 10);  // Lines 10..19.
  ASSERT_NE(map.Find(5), nullptr);
  EXPECT_EQ(*map.Find(5), "outer");
  EXPECT_EQ(*map.Find(15), "inner");
  EXPECT_EQ(map.Find(200), nullptr);
}

TEST(Heatmap, HashTableLinesAreAttributed) {
  harness::IntsetConfig cfg = ContendedConfig(harness::RuntimeKind::kAsfTm);
  cfg.variant = asf::AsfVariant::Llb8();
  harness::IntsetResult r = harness::RunIntset(cfg);
  ASSERT_GT(r.heatmap.total_edges, 0u);
  bool any_attributed = false;
  for (const auto& [line, hl] : r.heatmap.lines) {
    any_attributed = any_attributed || hl.region == "hash:table";
  }
  EXPECT_TRUE(any_attributed);
}

// --- JSON schema -------------------------------------------------------------

TEST(LatencyJson, SerializedStatsAreInternallyConsistent) {
  harness::IntsetConfig cfg = ContendedConfig(harness::RuntimeKind::kAsfTm);
  harness::IntsetResult r = harness::RunIntset(cfg);
  std::string out;
  asfobs::JsonWriter w(&out);
  asfobs::WriteLatencyJson(w, r.latency);
  asfobs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(asfobs::JsonValue::Parse(out, &doc, &error)) << error;
  EXPECT_EQ(doc.Get("count")->AsUInt(), r.latency.count);
  EXPECT_EQ(doc.Get("p999")->AsUInt(), r.latency.Percentile(99.9));
  uint64_t bucket_sum = 0;
  for (const asfobs::JsonValue& b : doc.Get("buckets")->items()) {
    bucket_sum += b.at(1).AsUInt();
  }
  EXPECT_EQ(bucket_sum, r.latency.count);
  EXPECT_EQ(doc.Get("cleanBlocks")->AsUInt() + doc.Get("retriedBlocks")->AsUInt(),
            r.latency.count);
}

}  // namespace
