// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Compares two benchmark JSON reports (the BENCH_*.json files written via
// --json) table by table and prints per-cell percentage deltas.
//
// Matching: tables by title, rows by their first cell (the mode/config
// label; the n-th row with a label pairs with the n-th old row with it),
// cells by column index. Numeric cells (plain numbers, or numbers
// with a trailing '%') are diffed; non-numeric cells are compared as strings.
//
// Exit status:
//   0  reports agree (all rate deltas within threshold, no string changes)
//   1  regression: a higher-is-better column (header containing "/s" or
//      "speedup") dropped by more than --threshold percent, a lower-is-better
//      latency percentile column (p50/p90/p99/p999) rose by more than its
//      per-quantile threshold, or a non-numeric cell (e.g. a result digest)
//      changed. Tail quantiles are intrinsically noisier than the median, so
//      the gate escalates: p50 gates at 1x --threshold, p90 at 1.5x, p99 at
//      2x, p999 at 3x. The "progress" section (watchdog verdicts) gates
//      absolutely, with no threshold: a verdict that degrades (progress ->
//      livelock -> starvation) or a thread starving where the baseline kept
//      it fed is a regression regardless of every rate column.
//   2  usage or I/O error
//   3  schema drift: a table exists in only one of the reports, so its rows
//      were not compared at all (pass --allow-unmatched to downgrade this to
//      informational when the schema change is deliberate)
//
// Wall-clock columns ("wall s"), absolute counters and hit-rate columns are
// reported but never gate: on shared hosts wall-clock is noisy, a counter
// change always shows up in a digest or rate anyway, and a hit rate falls
// when a change removes events that used to hit (perf_selfcheck --baseline
// gates those counts exactly).
//
// Digest tables are the exception to all thresholds: any table whose title
// contains "digest" (e.g. the per-configuration result digests) gates every
// cell on exact string equality — those rows carry the simulator's
// bit-identity claim, and "close" is a failure. Header keys other than
// "benchmark" are ignored, so reports that carry keys this version no longer
// writes still diff.
//
// --json <out.json> additionally writes the whole comparison as a
// machine-readable report: every delta line as a typed record (table, row,
// column, old, new, pct, verdict), the progress comparisons, and a summary
// block with the counts and the exit verdict — for CI annotation without
// scraping the human-readable output.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/json.h"

namespace {

struct Table {
  std::string title;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

// One watchdog progress entry (the JSON "progress" section, keyed by run
// label). Verdicts and starved-core sets gate ABSOLUTELY, not by percentage:
// a thread that starves where the baseline kept it fed is a regression no
// threshold can excuse.
struct ProgressEntry {
  std::string label;
  std::string verdict;
  std::vector<uint64_t> starved_cores;
};

// Severity order for "did the verdict degrade": progress < livelock <
// starvation (starvation outranks livelock because it is the targeted
// failure — one victim losing every race while the machine runs).
int VerdictRank(const std::string& v) {
  if (v == "progress") {
    return 0;
  }
  if (v == "livelock") {
    return 1;
  }
  if (v == "starvation") {
    return 2;
  }
  return 3;  // Unknown verdicts rank worst; json_check rejects them anyway.
}

bool LoadReport(const char* path, std::vector<Table>* out, std::string* benchmark,
                std::vector<ProgressEntry>* progress) {
  std::string text;
  std::string error;
  if (!asfobs::ReadTextFile(path, &text, &error)) {
    std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
    return false;
  }
  asfobs::JsonValue root;
  if (!asfobs::JsonValue::Parse(text, &root, &error)) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", path, error.c_str());
    return false;
  }
  const asfobs::JsonValue* bench = root.Get("benchmark");
  if (bench != nullptr && bench->IsString()) {
    *benchmark = bench->AsString();
  }
  const asfobs::JsonValue* tables = root.Get("tables");
  if (tables == nullptr || !tables->IsArray()) {
    std::fprintf(stderr, "bench_diff: %s: no \"tables\" array\n", path);
    return false;
  }
  for (const asfobs::JsonValue& t : tables->items()) {
    Table table;
    const asfobs::JsonValue* title = t.Get("title");
    if (title != nullptr && title->IsString()) {
      table.title = title->AsString();
    }
    const asfobs::JsonValue* header = t.Get("header");
    if (header != nullptr && header->IsArray()) {
      for (const asfobs::JsonValue& h : header->items()) {
        table.header.push_back(h.AsString());
      }
    }
    const asfobs::JsonValue* rows = t.Get("rows");
    if (rows != nullptr && rows->IsArray()) {
      for (const asfobs::JsonValue& r : rows->items()) {
        std::vector<std::string> row;
        for (const asfobs::JsonValue& cell : r.items()) {
          row.push_back(cell.AsString());
        }
        table.rows.push_back(std::move(row));
      }
    }
    out->push_back(std::move(table));
  }
  const asfobs::JsonValue* prog = root.Get("progress");
  if (prog != nullptr && prog->IsObject()) {
    for (const auto& [label, entry] : prog->members()) {
      ProgressEntry pe;
      pe.label = label;
      const asfobs::JsonValue* verdict = entry.Get("verdict");
      if (verdict != nullptr && verdict->IsString()) {
        pe.verdict = verdict->AsString();
      }
      const asfobs::JsonValue* starved = entry.Get("starved_cores");
      if (starved != nullptr && starved->IsArray()) {
        for (const asfobs::JsonValue& c : starved->items()) {
          pe.starved_cores.push_back(c.AsUInt());
        }
      }
      progress->push_back(std::move(pe));
    }
  }
  return true;
}

const ProgressEntry* FindProgress(const std::vector<ProgressEntry>& entries,
                                  const std::string& label) {
  for (const ProgressEntry& e : entries) {
    if (e.label == label) {
      return &e;
    }
  }
  return nullptr;
}

// Parses a table cell as a number; accepts a trailing '%'.
bool ParseNum(const std::string& s, double* out) {
  if (s.empty() || s == "-") {
    return false;
  }
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  if (end == s.c_str()) {
    return false;
  }
  if (*end == '%') {
    ++end;
  }
  return *end == '\0';
}

// Higher-is-better rate columns gate the exit status; everything else is
// informational.
bool IsRateColumn(const std::string& header) {
  return header.find("/s") != std::string::npos || header.find("speedup") != std::string::npos;
}

// Lower-is-better latency percentile columns (the [latency] tables) gate on
// increases. Returns the per-quantile threshold multiplier, or 0 when the
// column is not a latency percentile: the tail of a distribution moves on
// fewer samples than the median, so p999 gets 3x the headroom of p50.
double LatencyGateScale(const std::string& header) {
  if (header == "p999") {
    return 3.0;
  }
  if (header == "p99") {
    return 2.0;
  }
  if (header == "p90") {
    return 1.5;
  }
  if (header == "p50") {
    return 1.0;
  }
  return 0.0;
}

// Digest tables carry the bit-identity claim: every cell — numeric-looking
// or not — gates on exact string equality, with no threshold. Matched by
// title so the gate covers every digest table a report carries.
bool IsDigestTable(const std::string& title) {
  std::string lower = title;
  for (char& ch : lower) {
    ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  }
  return lower.find("digest") != std::string::npos;
}

const Table* FindTable(const std::vector<Table>& tables, const std::string& title) {
  for (const Table& t : tables) {
    if (t.title == title) {
      return &t;
    }
  }
  return nullptr;
}

// The `nth` (0-based) row of `t` whose first cell is `key`.
const std::vector<std::string>* FindRow(const Table& t, const std::string& key, size_t nth) {
  for (const auto& row : t.rows) {
    if (!row.empty() && row[0] == key && nth-- == 0) {
      return &row;
    }
  }
  return nullptr;
}

// One compared cell (or structural event) for the --json report. `verdict`
// is the machine-readable analogue of the human-readable suffix printed on
// the same line: "ok" (numeric delta within gates), "regression",
// "digest_shift", "changed" (non-numeric cell moved), "new_row",
// "unmatched_table".
struct DeltaRecord {
  std::string table;
  std::string row;
  std::string column;
  std::string old_value;
  std::string new_value;
  double pct = 0.0;
  bool has_pct = false;
  std::string verdict;
};

// One progress entry comparison for the --json report.
struct ProgressRecord {
  std::string label;
  std::string old_verdict;
  std::string new_verdict;
  std::vector<uint64_t> newly_starved;
  bool regression = false;
};

// Machine-readable comparison report: every printed delta line as a typed
// record plus the exit verdict, so CI can gate and annotate without scraping
// the human-readable table. Schema (top-level keys validated by json_check):
// benchmark, threshold, deltas, progress, summary.
bool WriteJsonReport(const std::string& path, const char* old_path, const char* new_path,
                     const std::string& benchmark, double threshold,
                     const std::vector<DeltaRecord>& deltas,
                     const std::vector<ProgressRecord>& progress, int regressions, int changes,
                     int unmatched, int exit_code) {
  std::string out;
  asfobs::JsonWriter w(&out, /*pretty=*/true);
  w.BeginObject();
  w.KV("tool", "bench_diff");
  w.KV("benchmark", benchmark);
  w.KV("old", old_path);
  w.KV("new", new_path);
  w.KV("threshold", threshold);
  w.Key("deltas");
  w.BeginArray();
  for (const DeltaRecord& d : deltas) {
    w.BeginObject();
    w.KV("table", d.table);
    w.KV("row", d.row);
    w.KV("column", d.column);
    w.KV("old", d.old_value);
    w.KV("new", d.new_value);
    if (d.has_pct) {
      w.KV("pct", d.pct);
    }
    w.KV("verdict", d.verdict);
    w.EndObject();
  }
  w.EndArray();
  w.Key("progress_deltas");
  w.BeginArray();
  for (const ProgressRecord& p : progress) {
    w.BeginObject();
    w.KV("label", p.label);
    w.KV("old_verdict", p.old_verdict);
    w.KV("new_verdict", p.new_verdict);
    w.Key("newly_starved");
    w.BeginArray();
    for (uint64_t core : p.newly_starved) {
      w.UInt(core);
    }
    w.EndArray();
    w.KV("verdict", p.regression ? "regression" : "ok");
    w.EndObject();
  }
  w.EndArray();
  w.Key("summary");
  w.BeginObject();
  w.KV("regressions", static_cast<int64_t>(regressions));
  w.KV("changes", static_cast<int64_t>(changes));
  w.KV("unmatched_tables", static_cast<int64_t>(unmatched));
  w.KV("exit", static_cast<int64_t>(exit_code));
  w.KV("verdict", exit_code == 0   ? "ok"
                  : exit_code == 1 ? "regression"
                                   : "schema_drift");
  w.EndObject();
  w.EndObject();
  out.push_back('\n');
  std::string error;
  if (!asfobs::WriteTextFile(path, out, &error)) {
    std::fprintf(stderr, "bench_diff: %s\n", error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* old_path = nullptr;
  const char* new_path = nullptr;
  double threshold = 5.0;
  bool allow_unmatched = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--allow-unmatched") == 0) {
      allow_unmatched = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_diff: --json requires a path operand\n");
        return 2;
      }
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threshold") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_diff: --threshold requires a numeric operand\n");
        return 2;
      }
      char* end = nullptr;
      threshold = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || threshold < 0.0) {
        std::fprintf(stderr, "bench_diff: bad --threshold operand '%s'\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: bench_diff <old.json> <new.json> [--threshold <pct>] [--allow-unmatched]\n"
          "                  [--json <out.json>]\n");
      return 0;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "bench_diff: unknown argument '%s'\n", argv[i]);
      return 2;
    } else if (old_path == nullptr) {
      old_path = argv[i];
    } else if (new_path == nullptr) {
      new_path = argv[i];
    } else {
      std::fprintf(stderr, "bench_diff: too many operands\n");
      return 2;
    }
  }
  if (old_path == nullptr || new_path == nullptr) {
    std::fprintf(stderr,
                 "usage: bench_diff <old.json> <new.json> [--threshold <pct>] "
                 "[--allow-unmatched] [--json <out.json>]\n");
    return 2;
  }

  std::vector<Table> old_tables;
  std::vector<Table> new_tables;
  std::string old_bench;
  std::string new_bench;
  std::vector<ProgressEntry> old_progress;
  std::vector<ProgressEntry> new_progress;
  if (!LoadReport(old_path, &old_tables, &old_bench, &old_progress) ||
      !LoadReport(new_path, &new_tables, &new_bench, &new_progress)) {
    return 2;
  }
  if (old_bench != new_bench) {
    std::fprintf(stderr, "bench_diff: reports are from different benchmarks (%s vs %s)\n",
                 old_bench.c_str(), new_bench.c_str());
    return 2;
  }
  int regressions = 0;
  int changes = 0;
  int unmatched = 0;
  std::vector<DeltaRecord> deltas;
  std::vector<ProgressRecord> progress_records;
  for (const Table& nt : new_tables) {
    const Table* ot = FindTable(old_tables, nt.title);
    if (ot == nullptr) {
      std::printf("== %s ==\n  (table only in %s — rows not compared)\n", nt.title.c_str(),
                  new_path);
      deltas.push_back({nt.title, "", "", "", "", 0.0, false, "unmatched_table"});
      ++unmatched;
      continue;
    }
    std::printf("== %s ==\n", nt.title.c_str());
    const bool digest_table = IsDigestTable(nt.title);
    std::map<std::string, size_t> seen;  // Rows so far per label.
    for (const auto& nrow : nt.rows) {
      if (nrow.empty()) {
        continue;
      }
      const std::vector<std::string>* orow = FindRow(*ot, nrow[0], seen[nrow[0]]++);
      if (orow == nullptr) {
        std::printf("  %-40s new row\n", nrow[0].c_str());
        deltas.push_back({nt.title, nrow[0], "", "", "", 0.0, false, "new_row"});
        continue;
      }
      for (size_t c = 1; c < nrow.size() && c < orow->size(); ++c) {
        const std::string& header = c < nt.header.size() ? nt.header[c] : "";
        const std::string& ov = (*orow)[c];
        const std::string& nv = nrow[c];
        if (digest_table) {
          if (ov != nv) {
            std::printf("  %-40s %-14s %s -> %s  DIGEST SHIFT  REGRESSION\n", nrow[0].c_str(),
                        header.c_str(), ov.c_str(), nv.c_str());
            deltas.push_back({nt.title, nrow[0], header, ov, nv, 0.0, false, "digest_shift"});
            ++regressions;
          }
          continue;
        }
        double od = 0.0;
        double nd = 0.0;
        if (ParseNum(ov, &od) && ParseNum(nv, &nd)) {
          if (od == nd) {
            continue;
          }
          double pct = od != 0.0 ? 100.0 * (nd - od) / od : 0.0;
          const double lat_scale = LatencyGateScale(header);
          bool regressed = (IsRateColumn(header) && pct < -threshold) ||
                           (lat_scale != 0.0 && pct > threshold * lat_scale);
          std::printf("  %-40s %-14s %10s -> %-10s %+7.1f%%%s\n", nrow[0].c_str(),
                      header.c_str(), ov.c_str(), nv.c_str(), pct,
                      regressed ? "  REGRESSION" : "");
          deltas.push_back(
              {nt.title, nrow[0], header, ov, nv, pct, true, regressed ? "regression" : "ok"});
          if (regressed) {
            ++regressions;
          }
        } else if (ov != nv) {
          std::printf("  %-40s %-14s %s -> %s  CHANGED\n", nrow[0].c_str(), header.c_str(),
                      ov.c_str(), nv.c_str());
          deltas.push_back({nt.title, nrow[0], header, ov, nv, 0.0, false, "changed"});
          ++changes;
        }
      }
    }
  }
  for (const Table& ot : old_tables) {
    if (FindTable(new_tables, ot.title) == nullptr) {
      std::printf("== %s ==\n  (table only in %s — rows not compared)\n", ot.title.c_str(),
                  old_path);
      deltas.push_back({ot.title, "", "", "", "", 0.0, false, "unmatched_table"});
      ++unmatched;
    }
  }

  // Progress gate: absolute, threshold-free. A degraded verdict or a newly
  // starved thread is a regression even if every rate column improved.
  if (!old_progress.empty() || !new_progress.empty()) {
    std::printf("== progress ==\n");
    for (const ProgressEntry& ne : new_progress) {
      const ProgressEntry* oe = FindProgress(old_progress, ne.label);
      if (oe == nullptr) {
        std::printf("  %-40s new entry (verdict %s)\n", ne.label.c_str(), ne.verdict.c_str());
        progress_records.push_back({ne.label, "", ne.verdict, {}, false});
        continue;
      }
      bool regressed = false;
      ProgressRecord record{ne.label, oe->verdict, ne.verdict, {}, false};
      if (VerdictRank(ne.verdict) > VerdictRank(oe->verdict)) {
        std::printf("  %-40s verdict        %10s -> %-10s  REGRESSION\n", ne.label.c_str(),
                    oe->verdict.c_str(), ne.verdict.c_str());
        regressed = true;
      }
      for (uint64_t core : ne.starved_cores) {
        bool was_starved = false;
        for (uint64_t old_core : oe->starved_cores) {
          was_starved = was_starved || old_core == core;
        }
        if (!was_starved) {
          std::printf("  %-40s core %llu newly starved  REGRESSION\n", ne.label.c_str(),
                      static_cast<unsigned long long>(core));
          record.newly_starved.push_back(core);
          regressed = true;
        }
      }
      record.regression = regressed;
      progress_records.push_back(std::move(record));
      if (regressed) {
        ++regressions;
      } else if (ne.verdict != oe->verdict) {
        // An improvement (or lateral move) is worth a line, but not an exit.
        std::printf("  %-40s verdict        %10s -> %-10s\n", ne.label.c_str(),
                    oe->verdict.c_str(), ne.verdict.c_str());
      }
    }
    for (const ProgressEntry& oe : old_progress) {
      if (FindProgress(new_progress, oe.label) == nullptr) {
        std::printf("  %-40s entry only in %s\n", oe.label.c_str(), old_path);
        ++unmatched;
      }
    }
  }

  int exit_code = 0;
  if (regressions != 0 || changes != 0) {
    std::printf("\nbench_diff: %d regression(s) beyond %.1f%%, %d non-numeric change(s)\n",
                regressions, threshold, changes);
    exit_code = 1;
  } else if (unmatched != 0 && !allow_unmatched) {
    // A one-sided table means a whole block of telemetry silently escaped
    // comparison (e.g. a renamed or dropped table) — fail distinctly so
    // schema drift cannot masquerade as "no regressions".
    std::printf("\nbench_diff: %d table(s) exist in only one report; their rows were not "
                "compared (rerun with --allow-unmatched if the schema change is deliberate)\n",
                unmatched);
    exit_code = 3;
  } else {
    std::printf("\nbench_diff: no regressions beyond %.1f%%%s\n", threshold,
                unmatched != 0 ? " (unmatched tables allowed)" : "");
  }
  if (!json_path.empty() &&
      !WriteJsonReport(json_path, old_path, new_path, new_bench, threshold, deltas,
                       progress_records, regressions, changes, unmatched, exit_code)) {
    return 2;
  }
  return exit_code;
}
