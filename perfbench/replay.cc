// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "perfbench/replay.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "src/asf/llb.h"
#include "src/asf/machine.h"
#include "src/common/defs.h"
#include "src/obs/heatmap.h"
#include "src/sim/scheduler.h"

namespace perfbench {

namespace {

using asfsim::AccessKind;
using asfsim::TraceEvent;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool IsMemoryOp(AccessKind k) {
  switch (k) {
    case AccessKind::kLoad:
    case AccessKind::kStore:
    case AccessKind::kTxLoad:
    case AccessKind::kTxStore:
    case AccessKind::kWatchR:
    case AccessKind::kWatchW:
      return true;
    default:
      return false;
  }
}

// Same classification as asf::Machine::OnAccess.
bool WriteLike(AccessKind k) {
  return k == AccessKind::kStore || k == AccessKind::kTxStore || k == AccessKind::kWatchW;
}

uint64_t FirstLine(const TraceEvent& e) { return asfcommon::LineOf(e.addr); }
uint64_t LastLine(const TraceEvent& e) {
  return asfcommon::LineOf(e.addr + (e.size == 0 ? 0 : e.size - 1));
}

// ---- sim ------------------------------------------------------------------

// Answers every access with the latency the recorded run charged for it.
class RecordedLatencies final : public asfsim::AccessHandler {
 public:
  explicit RecordedLatencies(const std::vector<std::vector<const TraceEvent*>>& per_core)
      : per_core_(per_core), next_(per_core.size(), 0) {}

  asfsim::AccessOutcome OnAccess(asfsim::SimThread& t, AccessKind, uint64_t, uint32_t) override {
    const uint32_t c = t.id();
    return {per_core_[c][next_[c]++]->latency, false};
  }

 private:
  const std::vector<std::vector<const TraceEvent*>>& per_core_;
  std::vector<size_t> next_;
};

struct ReplayThread {
  asfsim::SimThread* thread = nullptr;
  const std::vector<const TraceEvent*>* ops = nullptr;
};

// Re-issues one core's recorded operations. The gap between an operation's
// recorded issue cycle and the previous one's completion (ALU work, backoff,
// barrier waits, interrupt service) is charged as work, so the replayed
// per-core timeline matches the recorded one cycle for cycle.
asfsim::Task<void> ReplayCore(ReplayThread* r) {
  uint64_t clock = 0;
  for (const TraceEvent* e : *r->ops) {
    if (e->cycle > clock) {
      r->thread->core().WorkCycles(e->cycle - clock);
    }
    co_await r->thread->Access(e->kind, e->addr, e->size);
    clock = e->cycle + e->latency;
  }
}

struct SimPass {
  uint64_t wakes = 0;
  uint64_t fast_wakes = 0;
  uint64_t inline_wakes = 0;
  uint64_t end_cycles = 0;  // Summed over cores.
  double seconds = 0.0;
};

SimPass RunSimPass(const std::vector<std::vector<const TraceEvent*>>& per_core) {
  asfsim::CoreParams params;
  params.timer_enabled = false;  // Recorded interrupt service is in the gaps.
  asfsim::Scheduler sched(static_cast<uint32_t>(per_core.size()), params);
  RecordedLatencies handler(per_core);
  sched.SetAccessHandler(&handler);
  std::vector<ReplayThread> threads(per_core.size());
  for (size_t c = 0; c < per_core.size(); ++c) {
    threads[c].ops = &per_core[c];
    threads[c].thread = &sched.Spawn(ReplayCore(&threads[c]));
  }
  const Clock::time_point start = Clock::now();
  sched.Run();
  SimPass p;
  p.seconds = SecondsSince(start);
  p.wakes = sched.wakes_scheduled();
  p.fast_wakes = sched.fast_wakes();
  p.inline_wakes = sched.inline_wakes();
  for (uint32_t c = 0; c < sched.num_cores(); ++c) {
    p.end_cycles += sched.core(c).clock();
  }
  return p;
}

// ---- mem ------------------------------------------------------------------

struct MemPass {
  uint64_t accesses = 0;
  uint64_t latency = 0;
};

MemPass RunMemPass(asfmem::MemorySystem& mem, const std::vector<TraceEvent>& ops) {
  MemPass p;
  for (const TraceEvent& e : ops) {
    if (IsMemoryOp(e.kind)) {
      p.latency += mem.Access(e.core, e.addr, e.size, WriteLike(e.kind)).latency;
      ++p.accesses;
    }
  }
  return p;
}

// ---- asf ------------------------------------------------------------------

enum class DirOp : uint8_t {
  kActivate,
  kDeactivate,
  kResolve,
  kAddReader,
  kSetWriter,
  kDropReader,
  kRemoveLine,
};

struct DirStep {
  DirOp op;
  bool write_like;
  uint32_t core;
  uint64_t first;
  uint64_t last;
};

enum class LlbOp : uint8_t { kAddRead, kAddWrite, kRelease, kClear, kRestoreAll };

struct LlbStep {
  LlbOp op;
  uint32_t core;
  uint64_t line;  // Relocated line.
};

// Plays the ASF layer's protected-set bookkeeping over the recorded stream
// the way asf::Machine::OnAccess and asf::AsfContext do — requester-wins
// resolution through the conflict directory, LLB tracking and backups, the
// w/-L1 variants' read set — and logs every directory and LLB call it makes,
// so each structure can then be timed alone on exactly that call sequence.
// Regions the recorded run aborted for reasons the memory stream does not
// show (L1 displacement, page faults, interrupts) are torn down when the
// recorded TxAbort event arrives.
class AsfModel {
 public:
  AsfModel(const RecordedFigures& rec, const std::vector<TraceEvent>& ops)
      : variant_(rec.variant),
        dir_(rec.cores, !asf::SpeculatorGateDisabled()),
        cores_(rec.cores) {
    // The LLB copies line contents (backups on AddWrite, write-back on
    // RestoreAll), and the recorded lines belonged to a machine arena that
    // no longer exists: relocate every line the LLB can see into a buffer
    // owned here.
    for (const TraceEvent& e : ops) {
      if (asfsim::IsTransactional(e.kind)) {
        for (uint64_t line = FirstLine(e); line <= LastLine(e); ++line) {
          reloc_.try_emplace(line, 0);
        }
      }
    }
    buffer_.assign((reloc_.size() + 1) * asfcommon::kCacheLineBytes, 0);
    uint64_t next = asfcommon::LineOf(reinterpret_cast<uint64_t>(buffer_.data()) +
                                      asfcommon::kCacheLineBytes - 1);
    for (auto& entry : reloc_) {
      entry.second = next++;
    }
    for (CoreState& s : cores_) {
      s.llb = std::make_unique<asf::Llb>(variant_.llb_entries);
    }
  }

  // Merges the lifecycle stream into the memory stream by cycle (both are
  // emitted in the simulator's global processing order).
  void Play(const std::vector<TraceEvent>& ops, const std::vector<asfobs::TxEvent>& events) {
    size_t next_event = 0;
    for (const TraceEvent& e : ops) {
      while (next_event < events.size() && events[next_event].cycle <= e.cycle) {
        OnTxEvent(events[next_event++]);
      }
      Step(e);
    }
  }

  const std::vector<DirStep>& dir_log() const { return dir_log_; }
  const std::vector<LlbStep>& llb_log() const { return llb_log_; }
  uint64_t speculates() const { return speculates_; }
  uint64_t victims() const { return victims_; }

 private:
  struct CoreState {
    bool active = false;
    std::unique_ptr<asf::Llb> llb;
    std::unordered_set<uint64_t> l1_reads;   // w/-L1 variants' read set.
    std::unordered_set<uint64_t> dir_lines;  // Lines mirrored into dir_.
  };

  void OnTxEvent(const asfobs::TxEvent& ev) {
    if (ev.kind == asfobs::TxEventKind::kTxAbort && ev.mode == asfobs::TxMode::kHardware &&
        ev.core < cores_.size() && cores_[ev.core].active) {
      Abort(ev.core);
    }
  }

  void Step(const TraceEvent& e) {
    const uint32_t c = e.core;
    CoreState& s = cores_[c];
    switch (e.kind) {
      case AccessKind::kSpeculate:
        if (s.active) {
          Abort(c);
        }
        dir_.OnActivate(c);
        LogDir(DirOp::kActivate, c);
        s.active = true;
        ++speculates_;
        return;
      case AccessKind::kCommit:
        if (s.active) {
          Teardown(c);
          s.llb->Clear();
          LogLlb(LlbOp::kClear, c, 0);
        }
        return;
      case AccessKind::kAbortOp:
      case AccessKind::kSyscall:
        if (s.active) {
          Abort(c);
        }
        return;
      case AccessKind::kRelease:
        if (s.active) {
          for (uint64_t line = FirstLine(e); line <= LastLine(e); ++line) {
            Release(c, line);
          }
        }
        return;
      default:
        break;
    }
    if (!IsMemoryOp(e.kind)) {
      return;
    }
    const bool write_like = WriteLike(e.kind);
    const uint64_t first = FirstLine(e);
    const uint64_t last = LastLine(e);
    uint64_t victims = dir_.Resolve(first, last, write_like, c);
    dir_log_.push_back({DirOp::kResolve, write_like, c, first, last});
    while (victims != 0) {
      const uint32_t v = static_cast<uint32_t>(std::countr_zero(victims));
      victims &= victims - 1;
      Abort(v);
      ++victims_;
    }
    if (!s.active) {
      return;
    }
    if (e.kind == AccessKind::kStore) {
      for (uint64_t line = first; line <= last; ++line) {
        if (HasWritten(c, line)) {
          Abort(c);  // Unannotated store to a speculatively written line.
          return;
        }
      }
    }
    for (uint64_t line = first; line <= last; ++line) {
      bool ok = true;
      switch (e.kind) {
        case AccessKind::kTxLoad:
        case AccessKind::kWatchR:
          ok = AddRead(c, line);
          break;
        case AccessKind::kTxStore:
        case AccessKind::kWatchW:
          ok = AddWrite(c, line);
          break;
        case AccessKind::kStore:
          if (HasRead(c, line)) {
            ok = AddWrite(c, line);
          }
          break;
        default:
          break;
      }
      if (!ok) {
        Abort(c);  // Capacity.
        return;
      }
    }
  }

  uint64_t Reloc(uint64_t line) const {
    auto it = reloc_.find(line);
    return it == reloc_.end() ? 0 : it->second;
  }

  bool HasRead(uint32_t c, uint64_t line) const {
    const CoreState& s = cores_[c];
    if (variant_.l1_read_set && s.l1_reads.count(line) != 0) {
      return true;
    }
    const uint64_t r = Reloc(line);
    return r != 0 && s.llb->HasLine(r);
  }

  bool HasWritten(uint32_t c, uint64_t line) const {
    const uint64_t r = Reloc(line);
    return r != 0 && cores_[c].llb->HasWrittenLine(r);
  }

  bool AddRead(uint32_t c, uint64_t line) {
    CoreState& s = cores_[c];
    const uint64_t r = Reloc(line);
    if (variant_.l1_read_set) {
      if (s.llb->HasWrittenLine(r)) {
        return true;
      }
      s.l1_reads.insert(line);
    } else {
      LogLlb(LlbOp::kAddRead, c, r);
      if (!s.llb->AddRead(r)) {
        return false;
      }
      if (s.llb->HasWrittenLine(r)) {
        return true;  // Monitored through the writer record.
      }
    }
    dir_.AddReader(c, line);
    LogDir(DirOp::kAddReader, c, line);
    s.dir_lines.insert(line);
    return true;
  }

  bool AddWrite(uint32_t c, uint64_t line) {
    CoreState& s = cores_[c];
    const uint64_t r = Reloc(line);
    LogLlb(LlbOp::kAddWrite, c, r);
    if (!s.llb->AddWrite(r)) {
      return false;
    }
    s.l1_reads.erase(line);
    dir_.SetWriter(c, line);
    LogDir(DirOp::kSetWriter, c, line);
    s.dir_lines.insert(line);
    return true;
  }

  void Release(uint32_t c, uint64_t line) {
    CoreState& s = cores_[c];
    bool dropped = false;
    if (variant_.l1_read_set) {
      dropped = s.l1_reads.erase(line) != 0;
    } else {
      const uint64_t r = Reloc(line);
      if (r == 0) {
        return;
      }
      LogLlb(LlbOp::kRelease, c, r);
      dropped = s.llb->Release(r);
    }
    if (dropped) {
      dir_.DropReader(c, line);
      LogDir(DirOp::kDropReader, c, line);
    }
  }

  void Teardown(uint32_t c) {
    CoreState& s = cores_[c];
    for (uint64_t line : s.dir_lines) {
      dir_.RemoveLine(c, line);
      LogDir(DirOp::kRemoveLine, c, line);
    }
    s.dir_lines.clear();
    s.l1_reads.clear();
    dir_.OnDeactivate(c);
    LogDir(DirOp::kDeactivate, c);
    s.active = false;
  }

  void Abort(uint32_t c) {
    Teardown(c);
    cores_[c].llb->RestoreAll();
    LogLlb(LlbOp::kRestoreAll, c, 0);
  }

  void LogDir(DirOp op, uint32_t c, uint64_t line = 0) {
    dir_log_.push_back({op, false, c, line, line});
  }
  void LogLlb(LlbOp op, uint32_t c, uint64_t line) { llb_log_.push_back({op, c, line}); }

  const asf::AsfVariant variant_;
  asf::ConflictDirectory dir_;
  std::vector<CoreState> cores_;
  std::unordered_map<uint64_t, uint64_t> reloc_;  // Recorded line -> owned line.
  std::vector<uint8_t> buffer_;
  std::vector<DirStep> dir_log_;
  std::vector<LlbStep> llb_log_;
  uint64_t speculates_ = 0;
  uint64_t victims_ = 0;
};

// Runs the directory log on a fresh directory.
void PlayDirectory(uint32_t cores, const std::vector<DirStep>& log,
                   asf::ConflictDirectory::Stats* stats) {
  asf::ConflictDirectory dir(cores, !asf::SpeculatorGateDisabled());
  for (const DirStep& s : log) {
    switch (s.op) {
      case DirOp::kActivate:
        dir.OnActivate(s.core);
        break;
      case DirOp::kDeactivate:
        dir.OnDeactivate(s.core);
        break;
      case DirOp::kResolve:
        dir.Resolve(s.first, s.last, s.write_like, s.core);
        break;
      case DirOp::kAddReader:
        dir.AddReader(s.core, s.first);
        break;
      case DirOp::kSetWriter:
        dir.SetWriter(s.core, s.first);
        break;
      case DirOp::kDropReader:
        dir.DropReader(s.core, s.first);
        break;
      case DirOp::kRemoveLine:
        dir.RemoveLine(s.core, s.first);
        break;
    }
  }
  *stats = dir.stats();
}

// Runs the LLB log on fresh per-core LLBs.
void PlayLlb(uint32_t cores, uint32_t capacity, const std::vector<LlbStep>& log) {
  std::vector<std::unique_ptr<asf::Llb>> llbs;
  for (uint32_t c = 0; c < cores; ++c) {
    llbs.push_back(std::make_unique<asf::Llb>(capacity));
  }
  for (const LlbStep& s : log) {
    asf::Llb& llb = *llbs[s.core];
    switch (s.op) {
      case LlbOp::kAddRead:
        llb.AddRead(s.line);
        break;
      case LlbOp::kAddWrite:
        llb.AddWrite(s.line);
        break;
      case LlbOp::kRelease:
        llb.Release(s.line);
        break;
      case LlbOp::kClear:
        llb.Clear();
        break;
      case LlbOp::kRestoreAll:
        llb.RestoreAll();
        break;
    }
  }
}

// ---- obs ------------------------------------------------------------------

struct ObsPass {
  double seconds = 0.0;
  asfobs::LatencyStats latency;
  uint64_t heatmap_edges = 0;
};

ObsPass RunObsPass(const std::vector<asfobs::TxEvent>& events) {
  asfobs::LatencyRecorder latency;
  asfobs::HeatmapRecorder heatmap;
  latency.SetNext(&heatmap);
  const Clock::time_point start = Clock::now();
  for (const asfobs::TxEvent& ev : events) {
    latency.OnTxEvent(ev);
  }
  ObsPass p;
  p.seconds = SecondsSince(start);
  p.latency = latency.stats();
  p.heatmap_edges = heatmap.stats().total_edges;
  return p;
}

}  // namespace

double Fidelity(double replayed, double recorded) {
  const double hi = std::max(replayed, recorded);
  return hi == 0.0 ? 1.0 : std::min(replayed, recorded) / hi;
}

ReplayResult ReplayLayers(const std::vector<asfsim::TraceEvent>& ops,
                          const std::vector<asfobs::TxEvent>& events,
                          const RecordedFigures& recorded) {
  ReplayResult r;
  r.ops = ops.size();

  // sim.
  std::vector<std::vector<const TraceEvent*>> per_core(recorded.cores);
  uint64_t recorded_end = 0;
  for (const TraceEvent& e : ops) {
    per_core[e.core].push_back(&e);
  }
  for (const auto& core_ops : per_core) {
    if (!core_ops.empty()) {
      recorded_end += core_ops.back()->cycle + core_ops.back()->latency;
    }
  }
  RunSimPass(per_core);
  const SimPass sim = RunSimPass(per_core);
  r.sim_wakes = sim.wakes;
  r.sim_fast_wakes = sim.fast_wakes;
  r.sim_inline_wakes = sim.inline_wakes;
  r.sim_seconds = sim.seconds;
  r.sim_fidelity = Fidelity(static_cast<double>(sim.end_cycles), static_cast<double>(recorded_end));

  // mem. The untimed pass warms the modelled caches the way the recorded
  // run's set-up had; the timed pass then starts from that state.
  const asf::AsfCosts costs;
  uint64_t recorded_mem_latency = 0;
  for (const TraceEvent& e : ops) {
    if (IsMemoryOp(e.kind)) {
      uint64_t extra = 0;
      if (asfsim::IsTransactional(e.kind)) {
        extra = (e.kind == AccessKind::kWatchR || e.kind == AccessKind::kWatchW)
                    ? costs.watch_extra
                    : costs.lock_mov_extra;
      }
      recorded_mem_latency += e.latency - std::min(e.latency, extra);
    }
  }
  asfmem::MemorySystem mem(recorded.cores, asf::MachineParams().mem);
  RunMemPass(mem, ops);
  mem.ResetStats();
  const asfmem::MemFastPathStats fast_before = mem.fast_path_stats();
  const Clock::time_point mem_start = Clock::now();
  const MemPass mp = RunMemPass(mem, ops);
  r.mem_seconds = SecondsSince(mem_start);
  const asfmem::MemFastPathStats fast_after = mem.fast_path_stats();
  r.mem_accesses = mp.accesses;
  r.mem = mem.TotalStats();
  r.mem_fast.accesses = fast_after.accesses - fast_before.accesses;
  r.mem_fast.line_hits = fast_after.line_hits - fast_before.line_hits;
  r.mem_fast.page_hits = fast_after.page_hits - fast_before.page_hits;
  r.mem_fidelity =
      Fidelity(static_cast<double>(mp.latency), static_cast<double>(recorded_mem_latency));

  // asf: the model pass derives the directory and LLB call logs; each log
  // then runs once more untimed and once timed on fresh structures.
  AsfModel model(recorded, ops);
  model.Play(ops, events);
  r.speculates = model.speculates();
  r.victims = model.victims();
  r.speculate_fidelity =
      Fidelity(static_cast<double>(r.speculates), static_cast<double>(recorded.speculates));
  r.victim_fidelity =
      Fidelity(static_cast<double>(r.victims), static_cast<double>(recorded.contention_aborts));
  r.dir_ops = model.dir_log().size();
  r.llb_ops = model.llb_log().size();
  asf::ConflictDirectory::Stats warm_dir;
  PlayDirectory(recorded.cores, model.dir_log(), &warm_dir);
  const Clock::time_point dir_start = Clock::now();
  PlayDirectory(recorded.cores, model.dir_log(), &r.dir);
  r.dir_seconds = SecondsSince(dir_start);
  PlayLlb(recorded.cores, recorded.variant.llb_entries, model.llb_log());
  const Clock::time_point llb_start = Clock::now();
  PlayLlb(recorded.cores, recorded.variant.llb_entries, model.llb_log());
  r.llb_seconds = SecondsSince(llb_start);

  // obs.
  RunObsPass(events);
  const ObsPass obs = RunObsPass(events);
  r.obs_events = events.size();
  r.obs_seconds = obs.seconds;
  r.obs_exact = obs.latency == recorded.latency && obs.heatmap_edges == recorded.heatmap_edges;
  return r;
}

}  // namespace perfbench
