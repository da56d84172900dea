// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Validates a JSON document: parses it, checks that the required top-level
// keys are present, and schema-checks every "latency" / "heatmap" /
// "progress" section found anywhere in the document (bench reports carry
// them at the top level keyed by series label; harness reports nest one per
// "result"):
//
//   latency: quantiles monotone (p50 <= p90 <= p99 <= p999), bucket counts
//     summing to "count", cleanBlocks + retriedBlocks == count, and
//     wastedCycles <= sum;
//   heatmap: "top" sorted by edges descending, readerVictims + writerVictims
//     == edges per line, and the top edges not exceeding "totalEdges";
//   progress: verdict in progress|livelock|starvation, per-core commits and
//     max_abort_streak arrays of equal length, starved_cores strictly
//     increasing and in range, and verdict/starved_cores consistency (a
//     starvation verdict names a core; a progress verdict starves none).
//
// Used by the bench smoke tests to assert every fig* --json report is
// well-formed. Errors are named with their JSON path. A required key may
// name a nested member with dots ("host.wall_s").
//
//   usage: json_check <file> [required-key...]
//
// Exit status: 0 when the file parses and all checks pass, 1 otherwise.
#include <cstdio>
#include <string>
#include <string_view>

#include "src/obs/export.h"
#include "src/obs/json.h"

namespace {

using asfobs::JsonValue;

int g_errors = 0;
const char* g_file = nullptr;

void Fail(const std::string& path, const std::string& what) {
  std::fprintf(stderr, "json_check: %s: %s: %s\n", g_file, path.c_str(), what.c_str());
  ++g_errors;
}

uint64_t UIntOf(const JsonValue& obj, const char* key, const std::string& path) {
  const JsonValue* v = obj.Get(key);
  if (v == nullptr || !v->IsNumber()) {
    Fail(path, std::string("missing numeric field \"") + key + "\"");
    return 0;
  }
  return v->AsUInt();
}

// One LatencyStats object as written by asfobs::WriteLatencyJson.
void CheckLatencyStats(const JsonValue& s, const std::string& path) {
  if (!s.IsObject()) {
    Fail(path, "latency entry is not an object");
    return;
  }
  const uint64_t count = UIntOf(s, "count", path);
  const uint64_t sum = UIntOf(s, "sum", path);
  const uint64_t p50 = UIntOf(s, "p50", path);
  const uint64_t p90 = UIntOf(s, "p90", path);
  const uint64_t p99 = UIntOf(s, "p99", path);
  const uint64_t p999 = UIntOf(s, "p999", path);
  if (!(p50 <= p90 && p90 <= p99 && p99 <= p999)) {
    Fail(path, "quantiles not monotone: p50 " + std::to_string(p50) + ", p90 " +
                   std::to_string(p90) + ", p99 " + std::to_string(p99) + ", p999 " +
                   std::to_string(p999));
  }
  const JsonValue* buckets = s.Get("buckets");
  if (buckets == nullptr || !buckets->IsArray()) {
    Fail(path, "missing \"buckets\" array");
  } else {
    uint64_t bucket_total = 0;
    uint64_t prev_bound = 0;
    bool have_prev = false;
    for (size_t i = 0; i < buckets->items().size(); ++i) {
      const JsonValue& b = buckets->items()[i];
      const std::string bpath = path + ".buckets[" + std::to_string(i) + "]";
      if (!b.IsArray() || b.items().size() != 2 || !b.items()[1].IsNumber()) {
        Fail(bpath, "bucket is not a [bound, count] pair");
        continue;
      }
      bucket_total += b.items()[1].AsUInt();
      if (b.items()[0].IsNumber()) {  // The overflow bucket's bound is "inf".
        uint64_t bound = b.items()[0].AsUInt();
        if (have_prev && bound <= prev_bound) {
          Fail(bpath, "bucket bounds not strictly increasing");
        }
        prev_bound = bound;
        have_prev = true;
      }
    }
    if (bucket_total != count) {
      Fail(path, "bucket counts sum to " + std::to_string(bucket_total) + ", expected count " +
                     std::to_string(count));
    }
  }
  const uint64_t clean = UIntOf(s, "cleanBlocks", path);
  const uint64_t retried = UIntOf(s, "retriedBlocks", path);
  if (clean + retried != count) {
    Fail(path, "cleanBlocks + retriedBlocks != count");
  }
  if (UIntOf(s, "wastedCycles", path) > sum) {
    Fail(path, "wastedCycles exceeds total cycles");
  }
}

// One HeatmapStats object as written by asfobs::WriteHeatmapJson.
void CheckHeatmapStats(const JsonValue& s, const std::string& path) {
  if (!s.IsObject()) {
    Fail(path, "heatmap entry is not an object");
    return;
  }
  const uint64_t total_edges = UIntOf(s, "totalEdges", path);
  const uint64_t distinct = UIntOf(s, "distinctLines", path);
  const JsonValue* top = s.Get("top");
  if (top == nullptr || !top->IsArray()) {
    Fail(path, "missing \"top\" array");
    return;
  }
  if (top->items().size() > distinct) {
    Fail(path, "top has more lines than distinctLines");
  }
  uint64_t prev_edges = 0;
  uint64_t top_total = 0;
  for (size_t i = 0; i < top->items().size(); ++i) {
    const JsonValue& hl = top->items()[i];
    const std::string hpath = path + ".top[" + std::to_string(i) + "]";
    const uint64_t edges = UIntOf(hl, "edges", hpath);
    if (i != 0 && edges > prev_edges) {
      Fail(hpath, "top not sorted by edges descending");
    }
    prev_edges = edges;
    top_total += edges;
    if (UIntOf(hl, "readerVictims", hpath) + UIntOf(hl, "writerVictims", hpath) != edges) {
      Fail(hpath, "readerVictims + writerVictims != edges");
    }
  }
  if (top_total > total_edges) {
    Fail(path, "top edges exceed totalEdges");
  }
}

// One watchdog ProgressReport object as written by JsonReport::AddProgress.
void CheckProgressStats(const JsonValue& s, const std::string& path) {
  if (!s.IsObject()) {
    Fail(path, "progress entry is not an object");
    return;
  }
  const JsonValue* verdict = s.Get("verdict");
  std::string v;
  if (verdict == nullptr || !verdict->IsString()) {
    Fail(path, "missing string field \"verdict\"");
  } else {
    v = verdict->AsString();
    if (v != "progress" && v != "livelock" && v != "starvation") {
      Fail(path, "verdict \"" + v + "\" is not progress|livelock|starvation");
    }
  }
  UIntOf(s, "max_commit_gap_cycles", path);
  auto uint_array = [&](const char* key) -> const JsonValue* {
    const JsonValue* a = s.Get(key);
    if (a == nullptr || !a->IsArray()) {
      Fail(path, std::string("missing \"") + key + "\" array");
      return nullptr;
    }
    for (size_t i = 0; i < a->items().size(); ++i) {
      if (!a->items()[i].IsNumber()) {
        Fail(path + "." + key + "[" + std::to_string(i) + "]", "not a number");
        return nullptr;
      }
    }
    return a;
  };
  const JsonValue* commits = uint_array("commits");
  const JsonValue* streaks = uint_array("max_abort_streak");
  const JsonValue* starved = uint_array("starved_cores");
  if (commits != nullptr && streaks != nullptr &&
      commits->items().size() != streaks->items().size()) {
    Fail(path, "commits and max_abort_streak disagree on the core count");
  }
  if (starved != nullptr && commits != nullptr) {
    uint64_t prev = 0;
    for (size_t i = 0; i < starved->items().size(); ++i) {
      const uint64_t core = starved->items()[i].AsUInt();
      const std::string spath = path + ".starved_cores[" + std::to_string(i) + "]";
      if (core >= commits->items().size()) {
        Fail(spath, "core " + std::to_string(core) + " out of range");
      }
      if (i != 0 && core <= prev) {
        Fail(spath, "starved cores not strictly increasing");
      }
      prev = core;
    }
    // The verdict is the FIRST violation, so a starved core implies a
    // non-progress verdict, and a starvation verdict names at least one.
    if (!starved->items().empty() && v == "progress") {
      Fail(path, "starved cores listed under a \"progress\" verdict");
    }
    if (starved->items().empty() && v == "starvation") {
      Fail(path, "\"starvation\" verdict with no starved cores");
    }
  }
}

// Resolves a dotted required key ("host.wall_s") against the document.
const JsonValue* Lookup(const JsonValue& doc, std::string_view dotted) {
  const JsonValue* v = &doc;
  for (;;) {
    const size_t dot = dotted.find('.');
    v = v->IsObject() ? v->Get(dotted.substr(0, dot)) : nullptr;
    if (v == nullptr || dot == std::string_view::npos) {
      return v;
    }
    dotted.remove_prefix(dot + 1);
  }
}

// "latency" values are either a single stats object (harness reports) or a
// {label: stats} map (bench reports); same for "heatmap" and "progress".
void CheckSection(const JsonValue& v, const std::string& path,
                  void (*check)(const JsonValue&, const std::string&)) {
  if (v.IsObject() && v.Get("count") == nullptr && v.Get("totalEdges") == nullptr &&
      v.Get("verdict") == nullptr) {
    for (const auto& [label, entry] : v.members()) {
      check(entry, path + "." + label);
    }
    return;
  }
  check(v, path);
}

// Recursively validates every latency/heatmap section in the document.
void Walk(const JsonValue& v, const std::string& path) {
  if (v.IsObject()) {
    for (const auto& [key, child] : v.members()) {
      const std::string cpath = path.empty() ? key : path + "." + key;
      if (key == "latency") {
        CheckSection(child, cpath, CheckLatencyStats);
      } else if (key == "heatmap") {
        CheckSection(child, cpath, CheckHeatmapStats);
      } else if (key == "progress") {
        CheckSection(child, cpath, CheckProgressStats);
      } else {
        Walk(child, cpath);
      }
    }
  } else if (v.IsArray()) {
    for (size_t i = 0; i < v.items().size(); ++i) {
      Walk(v.items()[i], path + "[" + std::to_string(i) + "]");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <file> [required-key...]\n", argv[0]);
    return 2;
  }
  g_file = argv[1];
  std::string text;
  std::string error;
  if (!asfobs::ReadTextFile(argv[1], &text, &error)) {
    std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    return 1;
  }
  asfobs::JsonValue doc;
  if (!asfobs::JsonValue::Parse(text, &doc, &error)) {
    std::fprintf(stderr, "%s: %s: parse error: %s\n", argv[0], argv[1], error.c_str());
    return 1;
  }
  if (!doc.IsObject()) {
    std::fprintf(stderr, "%s: %s: top-level value is not an object\n", argv[0], argv[1]);
    return 1;
  }
  int missing = 0;
  for (int i = 2; i < argc; ++i) {
    if (Lookup(doc, argv[i]) == nullptr) {
      std::fprintf(stderr, "%s: %s: missing required key \"%s\"\n", argv[0], argv[1], argv[i]);
      ++missing;
    }
  }
  Walk(doc, "");
  if (missing != 0 || g_errors != 0) {
    return 1;
  }
  std::printf("%s: ok (%zu top-level members)\n", argv[1], doc.members().size());
  return 0;
}
