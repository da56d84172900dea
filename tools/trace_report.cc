// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Offline analyzer for exported Perfetto/JSON traces (src/obs/export.h).
// Loads a trace file, re-runs the offline cycle analysis from the raw spans
// and lifecycle events embedded in the "asf" section, and prints:
//
//   * the cycle-category breakdown, cross-checked bit-for-bit against the
//     totals the exporting process computed online (exit 1 on mismatch);
//   * commit/abort summary with the Fig. 6 abort-cause shares (percent of
//     all attempts);
//   * an abort-cause timeline: aborts per cause across ten equal slices of
//     the measured window, to see whether a cause is a warm-up artifact or
//     a steady-state property;
//   * a per-category re-aggregation of the memory-operation events in
//     "traceEvents", cross-checked against the stored memSummary;
//   * the top-N contended cache lines (lines touched by more than one core),
//     ranked by memory-access count;
//   * abort causality, when the trace carries conflict-edge events: the
//     core-level aggression matrix (who aborts whom), wasted cycles split by
//     abort cause, and the conflict-edge hot-line heatmap;
//   * with --latency, the atomic-block latency distribution replayed from
//     the lifecycle events (docs/OBSERVABILITY.md): aggregate and per
//     (mode, clean|retried) percentiles, bit-identical to what a live
//     LatencyRecorder produced during the run.
//
//   usage: trace_report <trace.json> [--top <n>] [--latency]
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/abort_cause.h"
#include "src/common/defs.h"
#include "src/common/table.h"
#include "src/obs/export.h"
#include "src/obs/heatmap.h"
#include "src/obs/json.h"
#include "src/obs/latency.h"
#include "src/obs/tx_event.h"
#include "src/sim/core.h"

namespace {

using asfcommon::AbortCause;
using asfcommon::Table;
using asfobs::JsonValue;
using asfobs::TxEvent;
using asfobs::TxEventKind;
using asfsim::CycleCategory;

constexpr size_t kNumCategories = static_cast<size_t>(CycleCategory::kNumCategories);

uint64_t GetUInt(const JsonValue* obj, const char* key) {
  if (obj == nullptr) {
    return 0;
  }
  const JsonValue* v = obj->Get(key);
  return v != nullptr && v->IsNumber() ? v->AsUInt() : 0;
}

// Index of a cycle-category name, or kNumCategories when unknown.
size_t CategoryIndex(const std::string& name) {
  for (size_t i = 0; i < kNumCategories; ++i) {
    if (name == asfsim::CycleCategoryName(static_cast<CycleCategory>(i))) {
      return i;
    }
  }
  return kNumCategories;
}

std::string Pct(uint64_t part, uint64_t whole) {
  if (whole == 0) {
    return "-";
  }
  return Table::Num(100.0 * static_cast<double>(part) / static_cast<double>(whole), 2) + " %";
}

// Whether a memory-operation slice name is a memory access. Region-control
// ops (speculate, commit, ...) are traced with address 0 and touch no line.
bool IsMemoryAccessName(const std::string& name) {
  for (uint8_t k = 0; k <= static_cast<uint8_t>(asfsim::AccessKind::kSyscall); ++k) {
    const auto kind = static_cast<asfsim::AccessKind>(k);
    if (name == asfsim::AccessKindName(kind)) {
      return asfsim::IsMemoryAccess(kind);
    }
  }
  return false;
}

// "0,3,5" from a core bitmap.
std::string CoreList(uint64_t mask) {
  std::string out;
  for (uint32_t c = 0; c < 64; ++c) {
    if ((mask >> c) & 1) {
      if (!out.empty()) {
        out += ',';
      }
      out += std::to_string(c);
    }
  }
  return out.empty() ? "-" : out;
}

void AddLatencyRow(Table& table, const std::string& label, const asfobs::LatencyStats& s) {
  table.AddRow({label, Table::Int(static_cast<long long>(s.count)),
                Table::Int(static_cast<long long>(s.Percentile(50.0))),
                Table::Int(static_cast<long long>(s.Percentile(90.0))),
                Table::Int(static_cast<long long>(s.Percentile(99.0))),
                Table::Int(static_cast<long long>(s.Percentile(99.9))),
                Table::Num(s.Mean(), 1), Table::Num(100.0 * s.WastedRatio(), 1) + " %"});
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  size_t top_n = 10;
  bool show_latency = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top_n = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--latency") == 0) {
      show_latency = true;
    } else if (argv[i][0] != '-' && path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: %s <trace.json> [--top <n>] [--latency]\n", argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: %s <trace.json> [--top <n>] [--latency]\n", argv[0]);
    return 2;
  }

  std::string text;
  std::string error;
  if (!asfobs::ReadTextFile(path, &text, &error)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    return 1;
  }
  JsonValue doc;
  if (!JsonValue::Parse(text, &doc, &error)) {
    std::fprintf(stderr, "%s: %s: parse error: %s\n", argv[0], path, error.c_str());
    return 1;
  }

  std::vector<asfsim::CycleSpan> spans;
  std::vector<TxEvent> txs;
  if (!asfobs::LoadAsfSection(doc, &spans, &txs, &error)) {
    std::fprintf(stderr, "%s: %s: %s\n", argv[0], path, error.c_str());
    return 1;
  }
  const JsonValue* asf = doc.Get("asf");
  const JsonValue* stored_totals = asf->Get("categoryTotals");
  const JsonValue* stored_analysis = asf->Get("analysis");

  std::printf("Trace report: %s\n", path);
  const JsonValue* bench = asf->Get("benchmark");
  std::printf("benchmark: %s, cores: %llu, spans: %zu, lifecycle events: %zu\n\n",
              bench != nullptr ? bench->AsString().c_str() : "?",
              static_cast<unsigned long long>(GetUInt(asf, "numCores")), spans.size(),
              txs.size());

  // --- Cycle-category breakdown, re-derived from the raw spans ------------
  asfobs::TraceAnalysis a = asfobs::AnalyzeTrace(spans, txs);
  bool mismatch = false;
  {
    Table table("Cycle breakdown (offline re-analysis vs exported online totals)");
    table.SetHeader({"category", "cycles", "share", "stored", "check"});
    for (size_t i = 0; i < kNumCategories; ++i) {
      const char* name = asfsim::CycleCategoryName(static_cast<CycleCategory>(i));
      uint64_t stored = GetUInt(stored_totals, name);
      bool ok = stored == a.category_cycles[i];
      mismatch = mismatch || !ok;
      table.AddRow({name, Table::Int(static_cast<long long>(a.category_cycles[i])),
                    Pct(a.category_cycles[i], a.total_cycles),
                    Table::Int(static_cast<long long>(stored)), ok ? "ok" : "MISMATCH"});
    }
    uint64_t stored_total = GetUInt(stored_analysis, "totalCycles");
    bool ok = stored_total == a.total_cycles;
    mismatch = mismatch || !ok;
    table.AddRow({"TOTAL", Table::Int(static_cast<long long>(a.total_cycles)), "100.00 %",
                  Table::Int(static_cast<long long>(stored_total)), ok ? "ok" : "MISMATCH"});
    table.Print();
  }

  // --- Commit/abort summary and Fig. 6 abort-cause shares -----------------
  {
    const uint64_t attempts = a.total_commits + a.total_aborts;
    Table table("Transaction outcome summary");
    table.SetHeader({"metric", "value", "share of attempts"});
    table.AddRow({"attempts", Table::Int(static_cast<long long>(attempts)), ""});
    for (size_t m = 1; m < a.commits_by_mode.size(); ++m) {
      if (a.commits_by_mode[m] != 0) {
        table.AddRow({std::string("commits (") +
                          asfobs::TxModeName(static_cast<asfobs::TxMode>(m)) + ")",
                      Table::Int(static_cast<long long>(a.commits_by_mode[m])),
                      Pct(a.commits_by_mode[m], attempts)});
      }
    }
    table.AddRow({"aborts (all causes)", Table::Int(static_cast<long long>(a.total_aborts)),
                  Pct(a.total_aborts, attempts)});
    for (size_t c = 1; c < a.aborts_by_cause.size(); ++c) {
      if (a.aborts_by_cause[c] != 0) {
        table.AddRow({std::string("  abort: ") +
                          asfcommon::AbortCauseName(static_cast<AbortCause>(c)),
                      Table::Int(static_cast<long long>(a.aborts_by_cause[c])),
                      Pct(a.aborts_by_cause[c], attempts)});
      }
    }
    // Injected faults (src/fault) next to the organic abort shares: how much
    // of each cause the fault injector manufactured versus the workload.
    if (a.total_injected != 0) {
      table.AddRow({"injected faults", Table::Int(static_cast<long long>(a.total_injected)),
                    Pct(a.total_injected, attempts)});
      for (size_t c = 1; c < a.injected_by_cause.size(); ++c) {
        if (a.injected_by_cause[c] != 0) {
          table.AddRow({std::string("  injected: ") +
                            asfcommon::AbortCauseName(static_cast<AbortCause>(c)),
                        Table::Int(static_cast<long long>(a.injected_by_cause[c])),
                        Pct(a.injected_by_cause[c], attempts)});
        }
      }
    }
    table.AddRow({"fallback transitions", Table::Int(static_cast<long long>(a.fallback_transitions)),
                  ""});
    table.AddRow({"backoff windows", Table::Int(static_cast<long long>(a.backoff_windows)), ""});
    table.AddRow({"backoff cycles", Table::Int(static_cast<long long>(a.backoff_cycles)), ""});
    table.Print();
  }

  // --- Abort-cause timeline over ten slices of the measured window --------
  if (a.total_aborts != 0 && a.last_cycle > a.first_cycle) {
    const uint64_t window = a.last_cycle - a.first_cycle;
    std::array<std::array<uint64_t, 10>, static_cast<size_t>(AbortCause::kNumCauses)> buckets{};
    for (const TxEvent& ev : txs) {
      if (ev.kind != TxEventKind::kTxAbort) {
        continue;
      }
      uint64_t off = ev.cycle > a.first_cycle ? ev.cycle - a.first_cycle : 0;
      size_t slot = std::min<size_t>(9, static_cast<size_t>(off * 10 / window));
      buckets[static_cast<size_t>(ev.cause)][slot] += 1;
    }
    Table table("Abort-cause timeline (aborts per tenth of the measured window)");
    std::vector<std::string> header = {"cause"};
    for (int d = 1; d <= 10; ++d) {
      header.push_back(std::to_string(d * 10) + "%");
    }
    table.SetHeader(header);
    for (size_t c = 1; c < buckets.size(); ++c) {
      if (a.aborts_by_cause[c] == 0) {
        continue;
      }
      std::vector<std::string> row = {asfcommon::AbortCauseName(static_cast<AbortCause>(c))};
      for (uint64_t n : buckets[c]) {
        row.push_back(Table::Int(static_cast<long long>(n)));
      }
      table.AddRow(row);
    }
    table.Print();
  }

  // --- Wasted cycles attributed to the abort cause that caused them -------
  if (a.total_aborts != 0) {
    uint64_t total_wasted = 0;
    for (uint64_t w : a.wasted_by_cause) {
      total_wasted += w;
    }
    Table table("Wasted cycles by abort cause (cycles inside attempts that later aborted)");
    table.SetHeader({"cause", "wasted cycles", "share"});
    for (size_t c = 1; c < a.wasted_by_cause.size(); ++c) {
      if (a.wasted_by_cause[c] != 0) {
        table.AddRow({asfcommon::AbortCauseName(static_cast<AbortCause>(c)),
                      Table::Int(static_cast<long long>(a.wasted_by_cause[c])),
                      Pct(a.wasted_by_cause[c], total_wasted)});
      }
    }
    table.AddRow({"TOTAL", Table::Int(static_cast<long long>(total_wasted)), "100.00 %"});
    table.Print();
  }

  // --- Abort causality: who aborts whom, and on which lines ---------------
  if (a.conflict_edges != 0) {
    Table table("Core aggression matrix (row = aggressor, column = aborted victim)");
    std::vector<std::string> header = {"aggr \\ victim"};
    for (uint32_t v = 0; v < a.matrix_cores; ++v) {
      header.push_back("c" + std::to_string(v));
    }
    table.SetHeader(header);
    for (uint32_t g = 0; g < a.matrix_cores; ++g) {
      std::vector<std::string> row = {"c" + std::to_string(g)};
      for (uint32_t v = 0; v < a.matrix_cores; ++v) {
        row.push_back(Table::Int(static_cast<long long>(a.Aggression(g, v))));
      }
      table.AddRow(row);
    }
    table.Print();

    asfobs::HeatmapStats heat = asfobs::ComputeHeatmapFromEvents(txs);
    Table lines("Hot lines from conflict edges (top " + std::to_string(top_n) + ")");
    lines.SetHeader({"line address", "edges", "rd victims", "wr victims", "wr aggressors",
                     "victim cores", "aggressor cores", "region"});
    for (const asfobs::HotLine& hl : heat.TopK(top_n)) {
      char addr[32];
      std::snprintf(addr, sizeof(addr), "0x%llx",
                    static_cast<unsigned long long>(hl.line << asfcommon::kCacheLineShift));
      lines.AddRow({addr, Table::Int(static_cast<long long>(hl.edges)),
                    Table::Int(static_cast<long long>(hl.reader_victims)),
                    Table::Int(static_cast<long long>(hl.writer_victims)),
                    Table::Int(static_cast<long long>(hl.write_aggressors)),
                    CoreList(hl.victim_cores), CoreList(hl.aggressor_cores), hl.region});
    }
    lines.Print();
  }

  // --- Atomic-block latency replayed from the lifecycle events ------------
  if (show_latency) {
    asfobs::LatencyRecorder rec;
    asfobs::ReplayLatency(txs, &rec);
    Table table("Atomic-block latency (offline replay; cycles per completed block)");
    table.SetHeader({"series", "blocks", "p50", "p90", "p99", "p999", "mean", "wasted %"});
    AddLatencyRow(table, "all blocks", rec.stats());
    for (size_t m = 1; m < static_cast<size_t>(asfobs::TxMode::kNumModes); ++m) {
      for (bool retried : {false, true}) {
        const asfobs::LatencyStats& s =
            rec.keyed(static_cast<asfobs::TxMode>(m), retried);
        if (s.count != 0) {
          AddLatencyRow(table,
                        std::string(asfobs::TxModeName(static_cast<asfobs::TxMode>(m))) +
                            (retried ? "/retried" : "/clean"),
                        s);
        }
      }
    }
    table.Print();
  }

  // --- Memory-operation re-aggregation from traceEvents -------------------
  // The exporter derived memSummary from the same events with
  // asfsim::Summarize; re-deriving it from the rendered "X" slices checks
  // that the Perfetto view carries the full information.
  const JsonValue* trace_events = doc.Get("traceEvents");
  const JsonValue* mem_summary = asf->Get("memSummary");
  std::unordered_map<uint64_t, uint64_t> line_accesses;
  std::unordered_map<uint64_t, uint32_t> line_cores;  // Bitmask of touching cores.
  if (trace_events != nullptr && trace_events->IsArray()) {
    std::array<uint64_t, kNumCategories> mem_cycles{};
    uint64_t mem_ops = 0;
    uint64_t mem_latency = 0;
    for (const JsonValue& ev : trace_events->items()) {
      const JsonValue* ph = ev.Get("ph");
      if (ph == nullptr || ph->AsString() != "X") {
        continue;
      }
      ++mem_ops;
      uint64_t dur = GetUInt(&ev, "dur");
      mem_latency += dur;
      const JsonValue* cat = ev.Get("cat");
      if (cat != nullptr) {
        size_t idx = CategoryIndex(cat->AsString());
        if (idx < kNumCategories) {
          mem_cycles[idx] += dur;
        }
      }
      const JsonValue* name = ev.Get("name");
      const JsonValue* args = ev.Get("args");
      const JsonValue* addr = args != nullptr ? args->Get("addr") : nullptr;
      if (name != nullptr && IsMemoryAccessName(name->AsString()) && addr != nullptr &&
          addr->IsString()) {
        uint64_t first = std::strtoull(addr->AsString().c_str(), nullptr, 16);
        uint64_t line = asfcommon::LineOf(first);
        line_accesses[line] += 1;
        // MemTid(core) = 2*core + 1; invert to recover the core id.
        uint64_t tid = GetUInt(&ev, "tid");
        uint32_t core = static_cast<uint32_t>((tid - 1) / 2);
        line_cores[line] |= core < 32 ? (1u << core) : 0;
      }
    }
    const JsonValue* stored_by_cat =
        mem_summary != nullptr ? mem_summary->Get("latencyByCategory") : nullptr;
    Table table("Memory-operation latency by category (traceEvents vs memSummary)");
    table.SetHeader({"category", "cycles", "stored", "check"});
    for (size_t i = 0; i < kNumCategories; ++i) {
      const char* name = asfsim::CycleCategoryName(static_cast<CycleCategory>(i));
      uint64_t stored = GetUInt(stored_by_cat, name);
      bool ok = stored == mem_cycles[i];
      mismatch = mismatch || !ok;
      table.AddRow({name, Table::Int(static_cast<long long>(mem_cycles[i])),
                    Table::Int(static_cast<long long>(stored)), ok ? "ok" : "MISMATCH"});
    }
    {
      uint64_t stored_ops = GetUInt(mem_summary, "totalOps");
      uint64_t stored_lat = GetUInt(mem_summary, "totalLatency");
      bool ok = stored_ops == mem_ops && stored_lat == mem_latency;
      mismatch = mismatch || !ok;
      table.AddRow({"TOTAL (" + Table::Int(static_cast<long long>(mem_ops)) + " ops)",
                    Table::Int(static_cast<long long>(mem_latency)),
                    Table::Int(static_cast<long long>(stored_lat)), ok ? "ok" : "MISMATCH"});
    }
    table.Print();
  }

  // --- Top contended cache lines ------------------------------------------
  {
    std::vector<std::pair<uint64_t, uint64_t>> contended;  // (accesses, line)
    for (const auto& [line, count] : line_accesses) {
      uint32_t mask = line_cores[line];
      if ((mask & (mask - 1)) != 0) {  // Touched by at least two cores.
        contended.emplace_back(count, line);
      }
    }
    std::sort(contended.begin(), contended.end(), std::greater<>());
    if (contended.size() > top_n) {
      contended.resize(top_n);
    }
    Table table("Top contended cache lines (touched by >1 core, by access count)");
    table.SetHeader({"line address", "accesses", "cores"});
    for (const auto& [count, line] : contended) {
      uint32_t mask = line_cores[line];
      std::string cores;
      for (uint32_t c = 0; c < 32; ++c) {
        if ((mask & (1u << c)) != 0) {
          if (!cores.empty()) {
            cores += ',';
          }
          cores += std::to_string(c);
        }
      }
      char addr[32];
      std::snprintf(addr, sizeof(addr), "0x%llx",
                    static_cast<unsigned long long>(line << asfcommon::kCacheLineShift));
      table.AddRow({addr, Table::Int(static_cast<long long>(count)), cores});
    }
    if (contended.empty()) {
      table.AddRow({"(none)", "0", ""});
    }
    table.Print();
  }

  if (mismatch) {
    std::fprintf(stderr,
                 "MISMATCH: offline re-analysis disagrees with the totals stored in the "
                 "trace.\n");
    return 1;
  }
  std::printf("All cross-checks passed.\n");
  return 0;
}
