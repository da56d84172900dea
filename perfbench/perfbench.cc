// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// perfbench: the repository benchmark (perfbench/README.md).
//
// Runs one named workload — a fixed grid of simulator configurations, each
// run to completion through the public harness API (harness::SweepRunner
// jobs calling harness::RunIntset / harness::RunStamp) on the exact event
// loop — repeatedly until a host-time budget is spent, checks every
// configuration's result, and prints the workload's metrics as one JSON
// object on the last line of standard output.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced passes and reports per-layer metrics: host-time spans stamped by
// the benchmark's own TxEventSink, the layers' own counters, and replays of
// one representative configuration's recorded streams through each layer's
// public functions (perfbench/replay.h).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/replay.h"
#include "src/common/abort_cause.h"
#include "src/common/frame_pool.h"
#include "src/common/table.h"
#include "src/harness/experiment.h"
#include "src/harness/stamp_driver.h"
#include "src/harness/sweep.h"
#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/sim/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using asfcommon::AbortCause;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double Ratio(double part, double whole) { return whole == 0.0 ? 0.0 : part / whole; }

// Result digests are compared with perfbench/reference_digests.txt only at
// this seed; every seed is checked by the workloads' own validation.
constexpr uint64_t kRecordedSeed = 1;

// A run repeats the grid at least this often, whatever --seconds says, so
// every reported figure is taken over several passes.
constexpr size_t kMinPasses = 3;

uint32_t HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// Workloads (perfbench/README.md gives the rationale for each).

struct JobSpec {
  std::string label;
  bool is_stamp = false;
  harness::IntsetConfig intset;
  std::string app;
  harness::StampConfig stamp;

  uint32_t threads() const { return is_stamp ? stamp.threads : intset.threads; }
};

struct WorkloadSpec {
  std::string name;
  std::vector<JobSpec> jobs;
  // The configuration whose streams the traced run records and replays;
  // shortened where the full one's trace would not fit in memory.
  JobSpec representative;
};

const char* const kWorkloads[] = {"intset-contended", "intset-stm-large", "stamp-apps"};

// Every workload runs its grid on a one-host-thread sweep.
constexpr uint32_t kHostThreads = 1;

JobSpec IntsetJob(const char* structure, uint64_t range, uint32_t update_pct,
                  harness::RuntimeKind runtime, const asf::AsfVariant& variant, uint32_t threads,
                  uint64_t ops, uint64_t seed) {
  JobSpec j;
  harness::IntsetConfig& c = j.intset;
  c.structure = structure;
  c.key_range = range;
  c.update_pct = update_pct;
  c.runtime = runtime;
  c.variant = variant;
  c.threads = threads;
  c.ops_per_thread = ops;
  c.seed = seed;
  j.label = std::string(structure) + "/r" + std::to_string(range) + "/u" +
            std::to_string(update_pct) + " " +
            (runtime == harness::RuntimeKind::kAsfTm ? variant.Name()
                                                     : harness::RuntimeKindName(runtime)) +
            " t" + std::to_string(threads);
  return j;
}

JobSpec StampJob(const char* app, uint32_t scale, uint64_t seed) {
  JobSpec j;
  j.is_stamp = true;
  j.app = app;
  j.stamp.runtime = harness::RuntimeKind::kAsfTm;
  j.stamp.variant = asf::AsfVariant::Llb256();
  j.stamp.threads = 8;
  j.stamp.scale = scale;
  j.stamp.seed = seed;
  j.stamp.collect_latency = true;
  j.label = std::string(app) + " s" + std::to_string(scale) + " " + j.stamp.variant.Name() + " t8";
  return j;
}

// Operations per simulated thread in the intset grids: small enough that a
// pass takes one to two host seconds, so a run holds many passes and its best
// pass is likely to land in a quiet moment of a shared host.
constexpr uint64_t kGridOps = 400;

// The fig5 slice panels on ASF-TM: small, hot working sets.
std::vector<JobSpec> ContendedJobs(uint64_t seed) {
  struct Panel {
    const char* structure;
    uint64_t range;
  };
  std::vector<JobSpec> jobs;
  for (const Panel& p : {Panel{"list", 512}, Panel{"rb", 8192}}) {
    for (const asf::AsfVariant& v : {asf::AsfVariant::Llb8(), asf::AsfVariant::Llb256WithL1()}) {
      for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        jobs.push_back(IntsetJob(p.structure, p.range, 20, harness::RuntimeKind::kAsfTm, v,
                                 threads, kGridOps, seed));
      }
    }
  }
  return jobs;
}

// TinySTM on working sets larger than the modelled L2.
std::vector<JobSpec> StmLargeJobs(uint64_t seed) {
  return {IntsetJob("hash", 65536, 100, harness::RuntimeKind::kTinyStm,
                    asf::AsfVariant::Llb256(), 8, kGridOps, seed),
          IntsetJob("rb", 65536, 20, harness::RuntimeKind::kTinyStm, asf::AsfVariant::Llb256(),
                    8, kGridOps, seed)};
}

bool BuildWorkload(const std::string& name, uint64_t seed, WorkloadSpec* w) {
  w->name = name;
  if (name == "intset-contended") {
    w->jobs = ContendedJobs(seed);
    w->representative = IntsetJob("list", 512, 20, harness::RuntimeKind::kAsfTm,
                                  asf::AsfVariant::Llb8(), 8, 300, seed);
  } else if (name == "intset-stm-large") {
    w->jobs = StmLargeJobs(seed);
    w->representative = IntsetJob("hash", 65536, 100, harness::RuntimeKind::kTinyStm,
                                  asf::AsfVariant::Llb256(), 8, 300, seed);
  } else if (name == "stamp-apps") {
    // genome stays below its scale cliff (scale 8: ~1M simulated cycles;
    // scale 12: ~640M).
    w->jobs = {StampJob("vacation-high", 12, seed), StampJob("intruder", 16, seed),
               StampJob("kmeans-high", 10, seed),   StampJob("labyrinth", 8, seed),
               StampJob("ssca2", 12, seed),         StampJob("genome", 8, seed)};
    w->representative = StampJob("intruder", 4, seed);
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Host-side observation of one configuration.

// Host-time span of the traced run. Spans of one configuration share `job`.
enum SpanName : uint8_t { kJobSpan, kSetupSpan, kMeasureSpan, kAttemptSpan, kBackoffSpan };
const char* const kSpanNames[] = {"harness.job", "harness.setup", "harness.measure",
                                  "tm.attempt", "tm.backoff"};

struct Span {
  int64_t start_ns = 0;  // From the run's epoch.
  int64_t end_ns = 0;
  uint32_t job = 0;
  uint32_t core = 0;
  SpanName name = kJobSpan;
  bool aborted = false;
};

// The minimal sink of untraced runs: stamps the host time of the measurement
// barrier, which ends the configuration's set-up.
class BarrierSink : public asfobs::TxEventSink {
 public:
  void OnTxEvent(const asfobs::TxEvent&) override {}
  void OnMeasurementReset() override { barrier_ = Clock::now(); }
  Clock::time_point barrier() const { return barrier_; }

 private:
  Clock::time_point barrier_{};
};

// The traced runs' sink: also stamps a tm.attempt span per transaction
// attempt (TxBegin -> TxCommit/TxAbort) and a tm.backoff span per backoff
// window of the measured window, and can keep the event stream for the obs
// replay.
class SpanSink final : public BarrierSink {
 public:
  SpanSink(uint32_t job, Clock::time_point epoch, std::vector<Span>* spans,
           std::vector<asfobs::TxEvent>* events)
      : job_(job), epoch_(epoch), spans_(spans), events_(events) {
    std::fill(attempt_start_.begin(), attempt_start_.end(), kClosed);
    std::fill(backoff_start_.begin(), backoff_start_.end(), kClosed);
  }

  void OnTxEvent(const asfobs::TxEvent& ev) override {
    if (!measuring_ || ev.core >= kMaxCores) {
      return;
    }
    if (events_ != nullptr) {
      events_->push_back(ev);
    }
    switch (ev.kind) {
      case asfobs::TxEventKind::kTxBegin:
        attempt_start_[ev.core] = Now();
        break;
      case asfobs::TxEventKind::kTxCommit:
      case asfobs::TxEventKind::kTxAbort:
        Close(&attempt_start_[ev.core], ev.core, kAttemptSpan,
              ev.kind == asfobs::TxEventKind::kTxAbort);
        break;
      case asfobs::TxEventKind::kBackoffStart:
        backoff_start_[ev.core] = Now();
        break;
      case asfobs::TxEventKind::kBackoffEnd:
        Close(&backoff_start_[ev.core], ev.core, kBackoffSpan, false);
        break;
      default:
        break;
    }
  }

  void OnMeasurementReset() override {
    BarrierSink::OnMeasurementReset();
    measuring_ = true;
  }

 private:
  static constexpr uint32_t kMaxCores = 64;
  static constexpr int64_t kClosed = -1;

  int64_t Now() const { return NanosBetween(epoch_, Clock::now()); }

  void Close(int64_t* start, uint32_t core, SpanName name, bool aborted) {
    if (*start == kClosed) {
      return;
    }
    spans_->push_back(Span{*start, Now(), job_, core, name, aborted});
    *start = kClosed;
  }

  const uint32_t job_;
  const Clock::time_point epoch_;
  std::vector<Span>* spans_;
  std::vector<asfobs::TxEvent>* events_;
  bool measuring_ = false;
  std::array<int64_t, kMaxCores> attempt_start_;
  std::array<int64_t, kMaxCores> backoff_start_;
};

struct JobResult {
  double start_s = 0.0;  // From the pass start.
  double end_s = 0.0;
  double setup_s = 0.0;  // Job start to the measurement barrier.
  std::string digest;
  std::string failure;  // Validation / invariant failure; empty when fine.
  uint64_t sim_cycles = 0;  // Measured-window simulated cycles.
  uint64_t mem_ops = 0;     // Simulated memory operations counted ...
  double mem_ops_s = 0.0;   // ... over this much host time.
  bool has_host = false;    // IntsetResult carries HostPerf / ASF counters.
  harness::HostPerf host;
  asf::AsfContextStats asf;
  bool has_mem = false;  // StampResult carries measured-window MemStats.
  asfmem::MemStats mem;
  asftm::TxStats tm;
  uint64_t frame_allocs = 0;
  uint64_t frame_hits = 0;
  asfobs::LatencyStats latency;
  uint64_t heatmap_edges = 0;

  double job_s() const { return end_s - start_s; }
  double measure_s() const { return job_s() - setup_s; }
};

// Runs one configuration on the calling host thread.
void RunJob(const JobSpec& spec, BarrierSink& sink, asfsim::Tracer* tracer,
            Clock::time_point pass_start, JobResult* out) {
  const asfcommon::FramePool::Stats frames_before = asfcommon::FramePool::ForThread().stats();
  const Clock::time_point start = Clock::now();
  if (!spec.is_stamp) {
    harness::IntsetConfig cfg = spec.intset;
    cfg.obs.tx_sink = &sink;
    cfg.obs.tracer = tracer;
    const harness::IntsetResult r = harness::RunIntset(cfg);
    out->digest = std::to_string(r.committed_tx) + ":" + std::to_string(r.measure_cycles) + ":" +
                  std::to_string(r.tm.TotalAttempts()) + ":" +
                  std::to_string(r.tm.TotalAborts());
    out->failure = r.invariant_violation;
    out->sim_cycles = r.measure_cycles;
    out->has_host = true;
    out->host = r.host;
    out->asf = r.asf;
    out->tm = r.tm;
    out->latency = r.latency;
    out->heatmap_edges = r.heatmap.total_edges;
  } else {
    harness::StampConfig cfg = spec.stamp;
    cfg.obs.tx_sink = &sink;
    cfg.obs.tracer = tracer;
    std::unique_ptr<stamp::StampApp> app = harness::MakeStampApp(spec.app);
    const harness::StampResult r = harness::RunStamp(*app, cfg);
    out->digest = std::to_string(r.exec_cycles) + ":" + std::to_string(r.tm.TotalAttempts()) +
                  ":" + std::to_string(r.tm.TotalAborts()) + ":" +
                  std::to_string(r.work_cycles);
    out->failure = r.validation;
    out->sim_cycles = r.exec_cycles;
    out->has_mem = true;
    out->mem = r.mem;
    out->tm = r.tm;
    out->latency = r.latency;
    out->heatmap_edges = r.heatmap.total_edges;
  }
  const Clock::time_point end = Clock::now();
  const asfcommon::FramePool::Stats frames_after = asfcommon::FramePool::ForThread().stats();
  out->frame_allocs = frames_after.allocs - frames_before.allocs;
  out->frame_hits = frames_after.pool_hits - frames_before.pool_hits;
  out->start_s = SecondsBetween(pass_start, start);
  out->end_s = SecondsBetween(pass_start, end);
  out->setup_s = SecondsBetween(start, sink.barrier());
  // IntsetResult counts MemorySystem accesses over the whole run (population
  // included); StampResult only over the measured window.
  if (out->has_host) {
    out->mem_ops = out->host.mem_accesses;
    out->mem_ops_s = out->job_s();
  } else {
    out->mem_ops = out->mem.loads + out->mem.stores;
    out->mem_ops_s = out->measure_s();
  }
}

// Host time of the traced passes, split by what the simulated cores were
// doing. Every simulated core's measured window counts once (the timeline),
// so shares are of per-core host timelines: the host interleaves all cores
// of a machine on one thread.
struct TmHostTime {
  std::vector<double> attempt_us;
  double attempt_s = 0.0;
  double wasted_s = 0.0;  // In attempts that aborted.
  double backoff_s = 0.0;
  double timeline_s = 0.0;
};

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<JobResult> jobs;
  std::vector<Span> spans;  // Traced passes only.
};

double CpuSeconds() {
  rusage u;
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

// Peak resident memory of this process image. VmHWM, not getrusage's
// ru_maxrss: the latter survives execve, so it would report the launching
// script's peak whenever that was larger.
double PeakRssMb() {
  std::string status;
  std::string error;
  if (asfobs::ReadTextFile("/proc/self/status", &status, &error)) {
    const size_t pos = status.find("VmHWM:");
    if (pos != std::string::npos) {
      return std::strtod(status.c_str() + pos + 6, nullptr) / 1024.0;  // In KiB.
    }
  }
  rusage u;
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

// One pass over the grid: every configuration is one SweepRunner job.
PassResult RunPass(const WorkloadSpec& w, bool traced, Clock::time_point epoch) {
  const size_t n = w.jobs.size();
  PassResult pass;
  pass.jobs.resize(n);
  std::vector<std::vector<Span>> job_spans(traced ? n : 0);
  harness::SweepRunner sweep(kHostThreads);
  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    sweep.Submit([&, i] {
      if (traced) {
        SpanSink sink(static_cast<uint32_t>(i), epoch, &job_spans[i], nullptr);
        RunJob(w.jobs[i], sink, nullptr, start, &pass.jobs[i]);
      } else {
        BarrierSink sink;
        RunJob(w.jobs[i], sink, nullptr, start, &pass.jobs[i]);
      }
    });
  }
  sweep.Run();
  pass.wall_s = SecondsBetween(start, Clock::now());
  pass.cpu_s = CpuSeconds() - cpu_start;
  if (traced) {
    const int64_t base = NanosBetween(epoch, start);
    for (size_t i = 0; i < n; ++i) {
      const JobResult& r = pass.jobs[i];
      const int64_t job_start = base + static_cast<int64_t>(r.start_s * 1e9);
      const int64_t barrier = job_start + static_cast<int64_t>(r.setup_s * 1e9);
      const int64_t job_end = base + static_cast<int64_t>(r.end_s * 1e9);
      const uint32_t id = static_cast<uint32_t>(i);
      pass.spans.push_back(Span{job_start, job_end, id, 0, kJobSpan, false});
      pass.spans.push_back(Span{job_start, barrier, id, 0, kSetupSpan, false});
      pass.spans.push_back(Span{barrier, job_end, id, 0, kMeasureSpan, false});
      pass.spans.insert(pass.spans.end(), job_spans[i].begin(), job_spans[i].end());
    }
  }
  return pass;
}

void AddTmHostTime(const WorkloadSpec& w, const PassResult& pass, TmHostTime* t) {
  for (size_t i = 0; i < w.jobs.size(); ++i) {
    t->timeline_s += w.jobs[i].threads() * pass.jobs[i].measure_s();
  }
  for (const Span& s : pass.spans) {
    const double secs = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.name == kAttemptSpan) {
      t->attempt_us.push_back(secs * 1e6);
      t->attempt_s += secs;
      t->wasted_s += s.aborted ? secs : 0.0;
    } else if (s.name == kBackoffSpan) {
      t->backoff_s += secs;
    }
  }
}

// ---------------------------------------------------------------------------
// Statistics.

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile of sorted values.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

// A timing as its median plus the highest percentile that still has at
// least ten samples beyond it.
struct Timing {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  size_t samples = 0;
};

Timing SummarizeTiming(std::vector<double> v) {
  Timing t;
  t.samples = v.size();
  std::sort(v.begin(), v.end());
  t.p50 = Quantile(v, 0.5);
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(v.size()) * (100.0 - pct) / 100.0 >= 10.0) {
      t.tail_pct = pct;
      t.tail = Quantile(v, pct / 100.0);
      break;
    }
  }
  return t;
}

// Grid-wide counter totals of one pass.
struct Totals {
  bool has_host = false;
  harness::HostPerf host;
  asf::AsfContextStats asf;
  bool has_mem = false;
  asfmem::MemStats mem;
  asftm::TxStats tm;
  uint64_t frame_allocs = 0;
  uint64_t frame_hits = 0;
};

Totals SumPass(const PassResult& pass) {
  Totals t;
  for (const JobResult& r : pass.jobs) {
    if (r.has_host) {
      t.has_host = true;
      t.host.wakes += r.host.wakes;
      t.host.fast_wakes += r.host.fast_wakes;
      t.host.inline_wakes += r.host.inline_wakes;
      t.host.mem_accesses += r.host.mem_accesses;
      t.host.mem_line_hits += r.host.mem_line_hits;
      t.host.mem_page_hits += r.host.mem_page_hits;
      t.host.dir_resolutions += r.host.dir_resolutions;
      t.host.dir_gate_skips += r.host.dir_gate_skips;
      t.host.dir_solo_fast_paths += r.host.dir_solo_fast_paths;
      t.host.dir_probes += r.host.dir_probes;
      t.host.dir_probe_hits += r.host.dir_probe_hits;
      t.asf.speculates += r.asf.speculates;
      t.asf.commits += r.asf.commits;
      for (size_t c = 0; c < t.asf.aborts.size(); ++c) {
        t.asf.aborts[c] += r.asf.aborts[c];
      }
    }
    if (r.has_mem) {
      t.has_mem = true;
      t.mem.loads += r.mem.loads;
      t.mem.stores += r.mem.stores;
      t.mem.l1_hits += r.mem.l1_hits;
      t.mem.ram_accesses += r.mem.ram_accesses;
      t.mem.page_faults += r.mem.page_faults;
    }
    t.tm.Add(r.tm);
    t.frame_allocs += r.frame_allocs;
    t.frame_hits += r.frame_hits;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Checks.

// Decides whether one configuration run checked out. Digests are compared
// with the stored reference only at kRecordedSeed.
struct Checker {
  bool compare_digests = false;
  std::map<std::string, std::string> reference;  // Configuration label -> digest.

  std::string Check(const std::string& label, const JobResult& r) const {
    if (!r.failure.empty()) {
      return r.failure;
    }
    if (!compare_digests) {
      return "";
    }
    auto it = reference.find(label);
    if (it == reference.end()) {
      return "no reference digest";
    }
    if (it->second != r.digest) {
      return "digest " + r.digest + " differs from reference " + it->second;
    }
    return "";
  }
};

// Reads "workload<TAB>configuration<TAB>digest" lines ('#' starts a comment).
bool LoadReference(const std::string& path, const std::string& workload, Checker* checker,
                   std::string* error) {
  std::string text;
  if (!asfobs::ReadTextFile(path, &text, error)) {
    return false;
  }
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t t1 = line.find('\t');
    const size_t t2 = t1 == std::string::npos ? t1 : line.find('\t', t1 + 1);
    if (t2 == std::string::npos) {
      *error = path + ": malformed line '" + line + "'";
      return false;
    }
    if (line.compare(0, t1, workload) == 0 && t1 == workload.size()) {
      checker->reference[line.substr(t1 + 1, t2 - t1 - 1)] = line.substr(t2 + 1);
    }
  }
  return true;
}

// The gate in use must pass `pass` unchanged and, with one of its reference
// digests corrupted, register exactly one failure; otherwise it has lost its
// teeth. At the recorded seed that is the loaded reference; at a held-out
// seed, whose digests have no reference, it is a gate built from this pass's
// digests.
bool DigestGateSelfTest(const WorkloadSpec& w, const Checker& checker, const PassResult& pass) {
  Checker exact = checker;
  if (!exact.compare_digests) {
    exact.compare_digests = true;
    for (size_t i = 0; i < w.jobs.size(); ++i) {
      exact.reference[w.jobs[i].label] = pass.jobs[i].digest;
    }
  }
  auto failures = [&](const Checker& c) {
    size_t n = 0;
    for (size_t i = 0; i < w.jobs.size(); ++i) {
      n += c.Check(w.jobs[i].label, pass.jobs[i]).empty() ? 0 : 1;
    }
    return n;
  };
  Checker corrupted = exact;
  auto it = corrupted.reference.find(w.jobs[w.jobs.size() / 2].label);
  if (it == corrupted.reference.end()) {
    return false;
  }
  it->second += "0";
  return failures(exact) == 0 && failures(corrupted) == 1;
}

// ---------------------------------------------------------------------------
// Metrics and output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  // What a ratio is taken over, or where a figure comes from.
};

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// Slowdowns on a shared host only ever add time, so each end-to-end figure
// is the run's best pass (least time, highest rate). The first pass warms the
// host (frame pools, allocator arenas) and is left out.
std::vector<Metric> EndToEndMetrics(const std::vector<PassResult>& passes) {
  std::vector<double> wall, cpu, setup, mcycles, mops;
  for (size_t i = 1; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    double setup_s = 0.0;
    double measure_s = 0.0;
    double cycles = 0.0;
    double ops = 0.0;
    double ops_s = 0.0;
    for (const JobResult& r : p.jobs) {
      setup_s += r.setup_s;
      measure_s += r.measure_s();
      cycles += static_cast<double>(r.sim_cycles);
      ops += static_cast<double>(r.mem_ops);
      ops_s += r.mem_ops_s;
    }
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    setup.push_back(setup_s);
    mcycles.push_back(Ratio(cycles, measure_s) / 1e6);
    mops.push_back(Ratio(ops, ops_s) / 1e6);
  }
  const std::string base = "best pass after warm-up";
  auto least = [](const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); };
  auto most = [](const std::vector<double>& v) { return *std::max_element(v.begin(), v.end()); };
  return {
      {"wall_s", least(wall), "s", base},
      {"cpu_s", least(cpu), "s", base},
      {"setup_s", least(setup), "s", base},
      {"sim_mcycles_per_s", most(mcycles), "Mcycles/s", base},
      {"sim_mops_per_s", most(mops), "Mops/s", base},
      {"peak_rss_mb", PeakRssMb(), "MB", "whole run"},
  };
}

std::string CauseName(size_t c) {
  return asfcommon::AbortCauseName(static_cast<AbortCause>(c));
}

std::vector<Metric> PerLayerMetrics(const WorkloadSpec& w, const std::vector<PassResult>& plain,
                                    const std::vector<PassResult>& traced,
                                    const perfbench::ReplayResult& rp, bool self_test,
                                    bool traced_equal) {
  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, std::string unit, std::string base) {
    m.push_back({std::move(name), value, std::move(unit), std::move(base)});
  };
  const double n = static_cast<double>(w.jobs.size());

  // harness: the benchmark's own timers around each SweepRunner job
  // (untraced passes).
  std::vector<double> job_s, max_s, wait_s, imbalance, setup_per_job;
  for (const PassResult& p : plain) {
    double sum = 0.0;
    double longest = 0.0;
    double wait = 0.0;
    double setup = 0.0;
    for (const JobResult& r : p.jobs) {
      job_s.push_back(r.job_s());
      sum += r.job_s();
      longest = std::max(longest, r.job_s());
      wait += r.start_s;
      setup += r.setup_s;
    }
    max_s.push_back(longest);
    wait_s.push_back(wait / n);
    imbalance.push_back(Ratio(p.wall_s, sum / kHostThreads));
    setup_per_job.push_back(setup / n);
  }
  const Timing jobs = SummarizeTiming(job_s);
  add("harness.jobs", n, "count", "configurations per pass");
  add("harness.job_s.p50", jobs.p50, "s", "jobs of the untraced passes");
  add("harness.job_s.max", Median(max_s), "s", "median over passes");
  add("harness.queue_wait_s", Median(wait_s), "s", "mean per job, median over passes");
  add("harness.imbalance", Median(imbalance), "ratio",
      "makespan / (sum job_s / " + std::to_string(kHostThreads) + " host thread)");
  add("harness.setup_s_per_job", Median(setup_per_job), "s", "median over passes");

  // Counters: deterministic per configuration, so the last untraced pass
  // stands for all. Where the harness result does not carry a counter (STAMP
  // runs have no HostPerf), the representative configuration's replay gives
  // it instead. The scheduler's wake counters, the memory fast-path counters
  // and the frame pool are never reset, so they cover the whole job,
  // population included; the rest restart at the measurement barrier.
  const Totals t = SumPass(plain.back());
  const std::string whole = "grid, whole job incl. population";
  const std::string run = "grid, measured window";
  const std::string replay = "replay of " + w.representative.label;
  const harness::HostPerf& h = t.host;
  const bool hh = t.has_host;
  add("sim.wakes", hh ? h.wakes : rp.sim_wakes, "count", hh ? whole : replay);
  add("sim.fast_wake_ratio", hh ? Ratio(h.fast_wakes, h.wakes) : Ratio(rp.sim_fast_wakes, rp.sim_wakes),
      "ratio", "of sim.wakes");
  add("sim.inline_wake_ratio",
      hh ? Ratio(h.inline_wakes, h.wakes) : Ratio(rp.sim_inline_wakes, rp.sim_wakes), "ratio",
      "of sim.wakes");
  add("sim.frame_allocs", static_cast<double>(t.frame_allocs), "count", whole);
  add("sim.frame_recycle_ratio", Ratio(t.frame_hits, t.frame_allocs), "ratio",
      "of sim.frame_allocs");
  add("sim.replay_wakes", rp.sim_wakes, "count", replay);
  add("sim.ns_per_wake", Ratio(rp.sim_seconds * 1e9, rp.sim_wakes), "ns", "of sim.replay_wakes");

  const asfmem::MemFastPathStats& rf = rp.mem_fast;
  add("mem.accesses", hh ? h.mem_accesses : rf.accesses, "count", hh ? whole : replay);
  add("mem.line_memo_ratio",
      hh ? Ratio(h.mem_line_hits, h.mem_accesses) : Ratio(rf.line_hits, rf.accesses), "ratio",
      "of mem.accesses");
  add("mem.page_memo_ratio",
      hh ? Ratio(h.mem_page_hits, h.mem_accesses) : Ratio(rf.page_hits, rf.accesses), "ratio",
      "of mem.accesses");
  const asfmem::MemStats& ms = t.has_mem ? t.mem : rp.mem;
  const std::string mem_source = t.has_mem ? run : replay;
  add("mem.l1_hit_ratio", Ratio(ms.l1_hits, ms.loads + ms.stores), "ratio",
      "of loads+stores, " + mem_source);
  add("mem.ram_accesses", ms.ram_accesses, "count", mem_source);
  add("mem.page_faults", ms.page_faults, "count", mem_source);
  add("mem.replay_accesses", rp.mem_accesses, "count", replay);
  add("mem.ns_per_access", Ratio(rp.mem_seconds * 1e9, rp.mem_accesses), "ns",
      "of mem.replay_accesses");

  const asf::ConflictDirectory::Stats& rd = rp.dir;
  const double resolutions = hh ? h.dir_resolutions : rd.resolutions;
  const double probes = hh ? h.dir_probes : rd.probes;
  add("asf.dir.resolutions", resolutions, "count", hh ? run : replay);
  add("asf.dir.gate_skip_ratio", Ratio(hh ? h.dir_gate_skips : rd.gate_skips, resolutions),
      "ratio", "of asf.dir.resolutions");
  add("asf.dir.solo_ratio", Ratio(hh ? h.dir_solo_fast_paths : rd.solo_fast_paths, resolutions),
      "ratio", "of asf.dir.resolutions");
  add("asf.dir.probes_per_access", Ratio(probes, resolutions), "probe/access",
      "of asf.dir.resolutions");
  add("asf.dir.probe_hit_ratio", Ratio(hh ? h.dir_probe_hits : rd.probe_hits, probes), "ratio",
      "of directory probes");
  add("asf.dir.replay_resolutions", rd.resolutions, "count", replay);
  add("asf.dir.ns_per_resolve", Ratio(rp.dir_seconds * 1e9, rd.resolutions), "ns",
      "directory log time over asf.dir.replay_resolutions");
  add("asf.llb.replay_ops", rp.llb_ops, "count", replay);
  add("asf.llb.ns_per_op", Ratio(rp.llb_seconds * 1e9, rp.llb_ops), "ns",
      "of asf.llb.replay_ops");
  // ASF-TM's hardware attempts are its SPECULATEs; STAMP runs report them
  // through TxStats only.
  const double speculates = hh ? t.asf.speculates : t.tm.hw_attempts;
  add("asf.speculates", speculates, "count", hh ? run : "grid TxStats");
  add("asf.commit_ratio", Ratio(hh ? t.asf.commits : t.tm.hw_commits, speculates), "ratio",
      "of asf.speculates");
  for (size_t c = static_cast<size_t>(AbortCause::kContention);
       c <= static_cast<size_t>(AbortCause::kExplicitAbort); ++c) {
    add("asf.aborts." + CauseName(c), hh ? t.asf.aborts[c] : t.tm.aborts[c], "count",
        hh ? run : "grid TxStats");
  }

  const double attempts = static_cast<double>(t.tm.TotalAttempts());
  add("tm.attempts", attempts, "count", run);
  add("tm.commit_ratio", Ratio(t.tm.Commits(), attempts), "ratio", "of tm.attempts");
  add("tm.serial_commit_share", Ratio(t.tm.serial_commits, t.tm.Commits()), "ratio",
      "of commits");
  for (size_t c = 1; c < static_cast<size_t>(AbortCause::kNumCauses); ++c) {
    add("tm.aborts." + CauseName(c), t.tm.aborts[c], "count", run);
  }
  TmHostTime host_time;
  for (const PassResult& p : traced) {
    AddTmHostTime(w, p, &host_time);
  }
  const Timing attempt = SummarizeTiming(host_time.attempt_us);
  add("tm.attempt_host_us.p50", attempt.p50, "us", "traced passes");
  add("tm.attempt_host_us.tail", attempt.tail, "us", "at tm.attempt_host_us.tail_pct");
  add("tm.attempt_host_us.tail_pct", attempt.tail_pct, "pct",
      "highest percentile with >= 10 samples beyond it");
  add("tm.attempt_host_us.samples", static_cast<double>(attempt.samples), "count",
      "traced attempts");
  add("tm.wasted_host_share", Ratio(host_time.wasted_s, host_time.attempt_s), "ratio",
      "of attempt host time");
  add("tm.backoff_host_share", Ratio(host_time.backoff_s, host_time.timeline_s), "ratio",
      "of per-core measured timelines");
  add("tm.outside_host_share",
      host_time.timeline_s == 0.0
          ? 0.0
          : 1.0 - (host_time.attempt_s + host_time.backoff_s) / host_time.timeline_s,
      "ratio", "self time of harness.measure, of per-core measured timelines");

  add("obs.events", rp.obs_events, "count", replay);
  add("obs.ns_per_event", Ratio(rp.obs_seconds * 1e9, rp.obs_events), "ns", "of obs.events");

  std::vector<double> traced_wall;
  std::vector<double> plain_wall;
  for (const PassResult& p : traced) {
    traced_wall.push_back(p.wall_s);
  }
  for (const PassResult& p : plain) {
    plain_wall.push_back(p.wall_s);
  }
  add("trace.overhead_ratio", Ratio(Median(traced_wall), Median(plain_wall)), "ratio",
      "traced wall_s / untraced wall_s");

  add("replay.ops", rp.ops, "count", replay);
  add("replay.sim.fidelity", rp.sim_fidelity, "ratio", "replayed / recorded end cycles");
  add("replay.mem.fidelity", rp.mem_fidelity, "ratio", "replayed / recorded latency sum");
  add("replay.asf.speculate_fidelity", rp.speculate_fidelity, "ratio",
      "replayed / recorded SPECULATEs");
  add("replay.asf.victim_fidelity", rp.victim_fidelity, "ratio",
      "replayed victims / recorded contention aborts");
  add("replay.obs.exact", rp.obs_exact ? 1.0 : 0.0, "bool", "replayed == online statistics");
  add("check.self_test", self_test ? 1.0 : 0.0, "bool",
      "gate in use: one corrupted reference digest, one failure");
  add("check.traced_digests_equal", traced_equal ? 1.0 : 0.0, "bool",
      "traced == untraced digests");
  return m;
}

asfcommon::Table MetricsTable(const std::string& title, const std::vector<Metric>& metrics) {
  asfcommon::Table t(title);
  t.SetHeader({"metric", "value", "unit", "base"});
  for (const Metric& m : metrics) {
    t.AddRow({m.name, FormatNumber(m.value), m.unit, m.base});
  }
  return t;
}

struct Options {
  std::string workload;
  uint64_t seed = kRecordedSeed;
  uint64_t seconds = 10;
  bool trace = false;
  std::string reference;
  std::string report;
  std::string spans;
  std::string commit = "unknown";
  bool print_reference = false;
};

bool WriteReport(const Options& opt, const WorkloadSpec& w,
                 const std::vector<asfcommon::Table>& tables) {
  std::string out;
  asfobs::JsonWriter j(&out, /*pretty=*/true);
  j.BeginObject();
  j.KV("benchmark", "perfbench");
  j.KV("quick", false);
  j.KV("seed", opt.seed);
  j.KV("workload", w.name);
  j.KV("trace", opt.trace);
  j.KV("seconds", opt.seconds);
  j.KV("jobs", static_cast<uint64_t>(kHostThreads));
  j.Key("host");
  j.BeginObject();
  j.KV("cpus", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  j.KV("affinity_cpus", static_cast<uint64_t>(HostCpus()));
  j.EndObject();
  j.Key("build");
  j.BeginObject();
  j.KV("type", PERFBENCH_BUILD_TYPE);
  j.KV("flags", PERFBENCH_CXX_FLAGS);
  j.KV("compiler", PERFBENCH_COMPILER);
  j.EndObject();
  j.KV("commit", opt.commit);
  j.Key("tables");
  j.BeginArray();
  for (const asfcommon::Table& t : tables) {
    j.BeginObject();
    j.KV("title", t.title());
    j.Key("header");
    j.BeginArray();
    for (const std::string& h : t.header()) {
      j.String(h);
    }
    j.EndArray();
    j.Key("rows");
    j.BeginArray();
    for (const auto& row : t.rows()) {
      j.BeginArray();
      for (const std::string& cell : row) {
        j.String(cell);
      }
      j.EndArray();
    }
    j.EndArray();
    j.EndObject();
  }
  j.EndArray();
  j.EndObject();
  out.push_back('\n');
  std::string error;
  if (!asfobs::WriteTextFile(opt.report, out, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  return true;
}

// Chrome trace-event JSON (loadable in Perfetto): one process per
// configuration, one thread per simulated core. Every job-level span is
// written, but only the first kMaxWrittenSpans spans overall, to bound the
// file (a contended pass has ~0.5M attempts).
constexpr size_t kMaxWrittenSpans = 100000;

bool WriteSpans(const std::string& path, const WorkloadSpec& w, const std::vector<Span>& spans) {
  std::string out;
  asfobs::JsonWriter j(&out);
  j.BeginObject();
  j.Key("otherData");
  j.BeginObject();
  j.KV("spans_recorded", static_cast<uint64_t>(spans.size()));
  j.KV("spans_written_max", static_cast<uint64_t>(kMaxWrittenSpans));
  j.EndObject();
  j.Key("traceEvents");
  j.BeginArray();
  for (size_t i = 0; i < w.jobs.size(); ++i) {
    j.BeginObject();
    j.KV("name", "process_name");
    j.KV("ph", "M");
    j.KV("pid", static_cast<uint64_t>(i));
    j.Key("args");
    j.BeginObject();
    j.KV("name", w.jobs[i].label);
    j.EndObject();
    j.EndObject();
  }
  size_t written = 0;
  for (const Span& s : spans) {
    const bool job_level = s.name == kJobSpan || s.name == kSetupSpan || s.name == kMeasureSpan;
    if (!job_level && written >= kMaxWrittenSpans) {
      continue;
    }
    ++written;
    j.BeginObject();
    j.KV("name", kSpanNames[s.name]);
    j.KV("ph", "X");
    j.KV("ts", static_cast<double>(s.start_ns) * 1e-3);
    j.KV("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    j.KV("pid", static_cast<uint64_t>(s.job));
    j.KV("tid", static_cast<uint64_t>(s.core));
    if (s.aborted) {
      j.Key("args");
      j.BeginObject();
      j.KV("aborted", true);
      j.EndObject();
    }
    j.EndObject();
  }
  j.EndArray();
  j.EndObject();
  std::string error;
  if (!asfobs::WriteTextFile(path, out, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return false;
  }
  return true;
}

void Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]\n"
               "          [--reference <digests.txt>] [--report <out.json>] [--spans <out.json>]\n"
               "          [--commit <id>] [--print-reference]\n"
               "workloads:",
               prog);
  for (const char* w : kWorkloads) {
    std::fprintf(stderr, " %s", w);
  }
  std::fprintf(stderr, "\n");
}

bool ParseUInt(const char* s, uint64_t* out) {
  if (s[0] < '0' || s[0] > '9') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno != 0) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-reference") {
      opt->print_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      if (!ParseUInt(value, &opt->seed)) {
        return false;
      }
    } else if (arg == "--seconds") {
      if (!ParseUInt(value, &opt->seconds) || opt->seconds == 0 || opt->seconds > 3600) {
        return false;
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      opt->trace = value[0] == '1';
    } else if (arg == "--reference") {
      opt->reference = value;
    } else if (arg == "--report") {
      opt->report = value;
    } else if (arg == "--spans") {
      opt->spans = value;
    } else if (arg == "--commit") {
      opt->commit = value;
    } else {
      return false;
    }
  }
  return !opt->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage(argv[0]);
    return 2;
  }
  WorkloadSpec w;
  if (!BuildWorkload(opt.workload, opt.seed, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    Usage(argv[0]);
    return 2;
  }
  const Clock::time_point epoch = Clock::now();

  if (opt.print_reference) {
    const PassResult pass = RunPass(w, false, epoch);
    for (size_t i = 0; i < w.jobs.size(); ++i) {
      std::printf("%s\t%s\t%s\n", w.name.c_str(), w.jobs[i].label.c_str(),
                  pass.jobs[i].digest.c_str());
    }
    return 0;
  }

  Checker checker;
  checker.compare_digests = opt.seed == kRecordedSeed;
  if (checker.compare_digests) {
    std::string error;
    if (opt.reference.empty()) {
      error = "--reference is required at the recorded seed";
    }
    if (!error.empty() || !LoadReference(opt.reference, w.name, &checker, &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 2;
    }
  }

  // Untraced and traced passes alternate, so both see the same host
  // conditions.
  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  const size_t min_passes = opt.trace ? 2 : kMinPasses;
  // A new round starts only if a round as long as the slowest so far still
  // fits in the budget, so a run ends close to --seconds.
  double longest_round = 0.0;
  for (;;) {
    const Clock::time_point round_start = Clock::now();
    plain.push_back(RunPass(w, false, epoch));
    if (opt.trace) {
      traced.push_back(RunPass(w, true, epoch));
    }
    const Clock::time_point now = Clock::now();
    longest_round = std::max(longest_round, SecondsBetween(round_start, now));
    if (plain.size() >= min_passes &&
        SecondsBetween(epoch, now) + longest_round > static_cast<double>(opt.seconds)) {
      break;
    }
  }

  // Every configuration run must check out and repeat the first pass's
  // digest exactly (traced passes included: observers may perturb nothing).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool traced_equal = true;
  auto check_pass = [&](const PassResult& pass, bool is_traced) {
    for (size_t i = 0; i < w.jobs.size(); ++i) {
      const JobResult& r = pass.jobs[i];
      ++attempted;
      std::string why = checker.Check(w.jobs[i].label, r);
      if (why.empty() && r.digest != plain[0].jobs[i].digest) {
        why = "digest " + r.digest + " differs from the first pass's " + plain[0].jobs[i].digest;
        traced_equal = traced_equal && !is_traced;
      }
      if (!why.empty()) {
        ++failed;
        std::fprintf(stderr, "perfbench: FAILED %s: %s\n", w.jobs[i].label.c_str(), why.c_str());
      }
    }
  };
  for (const PassResult& p : plain) {
    check_pass(p, false);
  }
  for (const PassResult& p : traced) {
    check_pass(p, true);
  }
  const bool self_test = DigestGateSelfTest(w, checker, plain[0]);
  if (!self_test) {
    std::fprintf(stderr, "perfbench: FAILED digest-gate self-test\n");
  }

  std::vector<asfcommon::Table> tables;
  std::vector<Metric> metrics = EndToEndMetrics(plain);
  tables.push_back(MetricsTable("End-to-end metrics", metrics));

  if (opt.trace) {
    // Record the representative configuration's streams and replay them.
    asfsim::Tracer tracer(1 << 20);
    std::vector<asfobs::TxEvent> events;
    std::vector<Span> unused;
    SpanSink sink(0, epoch, &unused, &events);
    JobSpec rep = w.representative;
    rep.intset.collect_latency = true;
    rep.stamp.collect_latency = true;
    JobResult rr;
    RunJob(rep, sink, &tracer, Clock::now(), &rr);
    ++attempted;
    if (!rr.failure.empty()) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s: %s\n", rep.label.c_str(), rr.failure.c_str());
    }
    perfbench::RecordedFigures rec;
    rec.cores = rep.threads();
    rec.variant = rep.is_stamp ? rep.stamp.variant : rep.intset.variant;
    rec.speculates = rr.has_host ? rr.asf.speculates : rr.tm.hw_attempts;
    rec.contention_aborts = rr.has_host
                                ? rr.asf.aborts[static_cast<size_t>(AbortCause::kContention)]
                                : rr.tm.Aborts(AbortCause::kContention);
    rec.latency = rr.latency;
    rec.heatmap_edges = rr.heatmap_edges;
    const perfbench::ReplayResult rp = perfbench::ReplayLayers(tracer.events(), events, rec);

    metrics = PerLayerMetrics(w, plain, traced, rp, self_test, traced_equal);
    tables.push_back(MetricsTable("Per-layer metrics", metrics));

    asfcommon::Table fidelity("Replay fidelity (" + rep.label + ")");
    fidelity.SetHeader({"layer", "replayed", "recorded", "fidelity"});
    fidelity.AddRow({"asf SPECULATEs", std::to_string(rp.speculates), std::to_string(rec.speculates),
                     FormatNumber(rp.speculate_fidelity)});
    fidelity.AddRow({"asf contention victims", std::to_string(rp.victims),
                     std::to_string(rec.contention_aborts), FormatNumber(rp.victim_fidelity)});
    fidelity.AddRow({"obs latency statistics", std::to_string(rp.obs_events) + " events",
                     std::to_string(rec.latency.count) + " blocks", rp.obs_exact ? "exact" : "DRIFT"});
    fidelity.AddRow({"sim end cycles", "-", "-", FormatNumber(rp.sim_fidelity)});
    fidelity.AddRow({"mem latency sum", "-", "-", FormatNumber(rp.mem_fidelity)});
    tables.push_back(fidelity);

    if (!opt.spans.empty() && !traced.empty()) {
      WriteSpans(opt.spans, w, traced.back().spans);
    }
  }

  asfcommon::Table per_job("Per-configuration host time (median over untraced passes)");
  per_job.SetHeader({"configuration", "job s", "setup s", "sim Mcycles/s"});
  for (size_t i = 0; i < w.jobs.size(); ++i) {
    std::vector<double> job_s, setup_s, rate;
    for (const PassResult& p : plain) {
      job_s.push_back(p.jobs[i].job_s());
      setup_s.push_back(p.jobs[i].setup_s);
      rate.push_back(Ratio(static_cast<double>(p.jobs[i].sim_cycles), p.jobs[i].measure_s()) / 1e6);
    }
    per_job.AddRow({w.jobs[i].label, FormatNumber(Median(job_s)), FormatNumber(Median(setup_s)),
                    FormatNumber(Median(rate))});
  }
  tables.push_back(per_job);

  asfcommon::Table passes("Passes");
  passes.SetHeader({"pass", "traced", "wall s", "cpu s"});
  for (size_t i = 0; i < plain.size(); ++i) {
    passes.AddRow({std::to_string(i), "no", FormatNumber(plain[i].wall_s),
                   FormatNumber(plain[i].cpu_s)});
  }
  for (size_t i = 0; i < traced.size(); ++i) {
    passes.AddRow({std::to_string(i), "yes", FormatNumber(traced[i].wall_s),
                   FormatNumber(traced[i].cpu_s)});
  }
  tables.push_back(passes);

  asfcommon::Table digests("Result digests (per configuration)");
  digests.SetHeader({"configuration", "digest"});
  for (size_t i = 0; i < w.jobs.size(); ++i) {
    digests.AddRow({w.jobs[i].label, plain[0].jobs[i].digest});
  }
  tables.push_back(digests);

  asfcommon::Table checks("Checks");
  checks.SetHeader({"check", "value"});
  checks.AddRow({"configuration runs attempted", std::to_string(attempted)});
  checks.AddRow({"configuration runs failed", std::to_string(failed)});
  checks.AddRow({"failed_ratio", FormatNumber(Ratio(failed, attempted))});
  checks.AddRow({"reference digests compared", checker.compare_digests ? "yes" : "no (held-out seed)"});
  checks.AddRow({"digest-gate self-test", self_test ? "pass" : "FAIL"});
  checks.AddRow({"traced digests equal untraced", opt.trace ? (traced_equal ? "yes" : "NO") : "-"});
  tables.push_back(checks);

  for (const asfcommon::Table& t : tables) {
    t.Print();
  }
  if (!opt.report.empty()) {
    WriteReport(opt, w, tables);
  }

  const bool correct = failed == 0 && self_test && traced_equal;
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
