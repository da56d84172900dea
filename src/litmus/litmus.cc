// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/litmus/litmus.h"

#include <array>
#include <set>
#include <sstream>
#include <unordered_set>

#include "src/common/digest.h"
#include "src/fault/fault_injector.h"
#include "src/harness/run_threads.h"
#include "src/tm/asf_tm.h"
#include "src/tm/lock_elision.h"
#include "src/tm/phased_tm.h"
#include "src/tm/serial_tm.h"
#include "src/tm/tiny_stm.h"

namespace litmus {

using asfcommon::FnvMix;
using asfcommon::kFnvOffset;
using harness::RuntimeKind;

namespace {

// Records every decision point of one execution: the state signature, the
// branch factor, the choice taken (forced by the prefix, 0 beyond it), and
// whether a non-zero choice at this point would preempt a runnable thread.
//
// Choices are run-to-completion relative (the CHESS scheduling model):
// choice 0 continues the thread that executed the previous event — or, if
// it is blocked, finished, or *yielding* (its pending event is a sleep
// wake: backoff, polling wait), the eligible event that is first in
// (cycle, seq) order among the others — and choice c > 0 switches to the
// c-th other eligible thread. A non-zero choice therefore IS a schedule
// deviation, and it counts against the preemption bound exactly when the
// previous thread was still eligible (switching away from a blocked thread
// is free). Treating a sleep as a yield is what makes the all-zeros
// reference fair — and therefore terminating: without it, a prefix that
// preempts an STM thread mid-transaction leaves its orecs locked, and
// "keep running the other thread" spins that thread through an infinite
// abort/backoff loop against the frozen owner.
class DfsChooser final : public asfsim::ScheduleChooser {
 public:
  struct Point {
    uint64_t sig = 0;
    uint32_t branches = 0;
    uint32_t chosen = 0;
    bool preemptive = false;  // A non-zero choice here preempts a runnable thread.
  };

  DfsChooser(const std::vector<uint32_t>& prefix, const Execution* exec)
      : prefix_(prefix), exec_(exec) {}

  size_t Choose(const std::vector<asfsim::SchedEvent>& eligible) override {
    // Locate the reference choice: the previously run thread if still
    // eligible and not yielding, else the (cycle, seq)-first other event.
    size_t ref = 0;
    bool cur_eligible = false;
    size_t cur_index = 0;
    if (has_cur_) {
      for (size_t i = 0; i < eligible.size(); ++i) {
        if (eligible[i].thread->id() == cur_thread_) {
          cur_index = i;
          cur_eligible = true;
          break;
        }
      }
    }
    const bool cur_yielded = cur_eligible && eligible[cur_index].yield;
    if (cur_eligible && !cur_yielded) {
      ref = cur_index;
    } else if (cur_yielded && cur_index == 0) {
      ref = 1;  // Hand off to the first event that is not the sleeper.
    }
    ASF_CHECK_MSG(points_.size() < kMaxPointsPerExecution,
                  "litmus execution exceeded the decision-point cap "
                  "(unbounded retry loop under the forced schedule?)");
    // Signature = test-visible state + which threads are runnable (in their
    // (cycle, seq) order) + the running thread (slot meanings depend on it)
    // + a per-thread control-position proxy: how many events each thread has
    // executed so far. Without the position proxy, a point mid-region ("T0's
    // next event is the protected store") collapses into an earlier
    // same-state point ("T0's next event is SPECULATE") and the branch that
    // interleaves the reader into the speculative window is never expanded.
    // Cycles themselves are still excluded on purpose (litmus.h).
    uint64_t sig = FnvMix(kFnvOffset, exec_->StateHash());
    for (const asfsim::SchedEvent& e : eligible) {
      sig = FnvMix(sig, e.thread->id() + 1);
    }
    sig = FnvMix(sig, cur_eligible ? cur_thread_ + 1 : 0);
    sig = FnvMix(sig, cur_yielded ? 1 : 0);  // Slot meanings depend on it.
    for (uint64_t c : chosen_counts_) {
      sig = FnvMix(sig, c);
    }
    const size_t depth = points_.size();
    const uint32_t slot =
        depth < prefix_.size() ? prefix_[depth] : 0;  // 0 = keep running.
    // Map the slot onto the eligible list: slot 0 is the reference choice,
    // slots 1.. walk the other events in (cycle, seq) order.
    size_t pick = ref;
    if (slot != 0) {
      uint32_t skip = slot;
      for (size_t i = 0; i < eligible.size(); ++i) {
        if (i == ref) {
          continue;
        }
        if (--skip == 0) {
          pick = i;
          break;
        }
      }
    }
    points_.push_back(
        Point{sig, static_cast<uint32_t>(eligible.size()), slot, cur_eligible});
    cur_thread_ = eligible[pick].thread->id();
    has_cur_ = true;
    ++chosen_counts_[cur_thread_ % chosen_counts_.size()];
    return pick;
  }

  const std::vector<Point>& points() const { return points_; }

 private:
  // Fail-fast guard: a forced schedule can in principle livelock (a
  // no-backoff policy spinning against a frozen lock owner yields no sleep
  // events for the reference to hand off at); crash with a message instead
  // of hanging the enumeration.
  static constexpr size_t kMaxPointsPerExecution = 1u << 20;

  const std::vector<uint32_t>& prefix_;
  const Execution* exec_;
  std::vector<Point> points_;
  std::array<uint64_t, 8> chosen_counts_{};
  uint32_t cur_thread_ = 0;
  bool has_cur_ = false;
};

// Litmus-sized runtime construction: same shapes as harness::MakeRuntime but
// with a small orec table for the STM (the default 2^20 orecs would dominate
// every per-interleaving machine) and an optional policy spec. Every
// interleaving's runtime owns fresh policy state seeded from its rng_seed,
// so a replayed prefix sees the backoff waits the recording run saw.
std::unique_ptr<asftm::TmRuntime> MakeLitmusRuntime(const LitmusConfig& cfg, asf::Machine& m) {
  switch (cfg.runtime) {
    case RuntimeKind::kAsfTm: {
      asftm::AsfTmParams p;
      p.rng_seed = cfg.seed * 0x1234567 + 99;
      p.policy = harness::PolicyFromSpec(cfg.policy, p.policy);
      return std::make_unique<asftm::AsfTm>(m, p);
    }
    case RuntimeKind::kTinyStm: {
      asftm::TinyStmParams p;
      p.orec_count_log2 = 10;
      p.max_read_set = 1024;
      p.max_write_set = 256;
      p.rng_seed = cfg.seed * 0x7654321 + 7;
      p.policy = harness::PolicyFromSpec(cfg.policy, p.policy);
      return std::make_unique<asftm::TinyStm>(m, p);
    }
    case RuntimeKind::kSequential:
      return std::make_unique<asftm::SequentialTm>(m);
    case RuntimeKind::kGlobalLock:
      return std::make_unique<asftm::GlobalLockTm>(m);
    case RuntimeKind::kPhasedTm: {
      asftm::PhasedTmParams p;
      p.rng_seed = cfg.seed * 0x33331 + 3;
      p.stm_orec_count_log2 = 10;
      p.stm_max_read_set = 1024;
      p.stm_max_write_set = 256;
      p.policy = harness::PolicyFromSpec(cfg.policy, p.policy);
      return std::make_unique<asftm::PhasedTm>(m, p);
    }
    case RuntimeKind::kLockElision: {
      asftm::ElisionTmParams p;
      p.lock.rng_seed = cfg.seed * 0xE11DE + 5;
      p.lock.policy = harness::PolicyFromSpec(cfg.policy, p.lock.policy);
      return std::make_unique<asftm::ElisionTm>(m, p);
    }
  }
  ASF_CHECK_MSG(false, "unknown runtime kind");
  return nullptr;
}

struct ExecutionOutcome {
  Outcome outcome;
  std::string stats_violation;
  std::vector<DfsChooser::Point> points;
};

// One full execution with the given forced choice prefix, on a fresh
// machine, runtime, and shared state.
ExecutionOutcome RunOne(const LitmusTest& test, const LitmusConfig& cfg,
                        const std::vector<uint32_t>& prefix) {
  asf::MachineParams mp =
      harness::PaperMachineParams(cfg.variant, test.threads(), /*timer_interrupts=*/false);
  mp.break_requester_wins_for_testing = cfg.break_requester_wins;
  // One Machine per interleaving: a small arena keeps per-execution host
  // cost at microseconds instead of half-gigabyte mmap churn.
  mp.arena_bytes = 1ull << 20;
  asf::Machine m(mp);

  const asffault::FaultSchedule faults = test.Faults();
  std::unique_ptr<asffault::FaultInjector> injector;
  if (!faults.empty()) {
    injector = std::make_unique<asffault::FaultInjector>(faults, m.scheduler().num_cores());
    m.SetFaultInjector(injector.get());
  }

  auto rt = MakeLitmusRuntime(cfg, m);
  auto exec = test.Prepare(m, *rt);
  DfsChooser chooser(prefix, exec.get());
  m.scheduler().SetChooser(&chooser);

  harness::RunThreads(m, test.threads(),
                      [&](asfsim::SimThread& t, uint32_t tid) -> asfsim::Task<void> {
                        co_await exec->Body(t, tid);
                      });

  ExecutionOutcome out;
  out.outcome = exec->Read();
  out.stats_violation = test.CheckStats(cfg.runtime, rt->TotalStats());
  out.points = chooser.points();
  return out;
}

}  // namespace

LitmusResult RunLitmus(const LitmusTest& test, const LitmusConfig& cfg) {
  LitmusResult result;
  result.test = test.name();
  {
    // The runtime's display name needs an instance; use a throwaway machine.
    asf::MachineParams mp =
        harness::PaperMachineParams(cfg.variant, test.threads(), /*timer_interrupts=*/false);
    mp.arena_bytes = 1ull << 20;
    asf::Machine m(mp);
    result.runtime = MakeLitmusRuntime(cfg, m)->name();
  }

  // DFS work list of forced choice prefixes; signature memo for pruning.
  std::vector<std::vector<uint32_t>> work;
  work.push_back({});
  std::unordered_set<uint64_t> expanded;
  std::set<std::string> reported;  // Dedup for violation messages.

  while (!work.empty()) {
    if (result.interleavings >= cfg.max_interleavings) {
      result.hit_cap = true;
      break;
    }
    const std::vector<uint32_t> prefix = std::move(work.back());
    work.pop_back();

    ExecutionOutcome one = RunOne(test, cfg, prefix);
    // Preemption budget already spent by this prefix: non-zero choices that
    // switched away from a still-runnable thread. Zeros and forced switches
    // (previous thread blocked or finished) are free.
    uint32_t preemptions = 0;
    for (size_t i = 0; i < prefix.size() && i < one.points.size(); ++i) {
      preemptions += (prefix[i] != 0 && one.points[i].preemptive) ? 1 : 0;
    }
    ++result.interleavings;
    ++result.outcomes[one.outcome];

    if (!test.Allowed(cfg.runtime, cfg.variant, one.outcome)) {
      std::ostringstream msg;
      msg << "outcome \"" << one.outcome << "\" outside the allowed set ["
          << test.AllowedSummary(cfg.runtime, cfg.variant) << "]";
      if (reported.insert(msg.str()).second) {
        result.violations.push_back(msg.str());
      }
    }
    if (!one.stats_violation.empty() && reported.insert(one.stats_violation).second) {
      result.violations.push_back(one.stats_violation);
    }

    // Expand the free decision points (beyond the forced prefix): queue every
    // alternative branch, unless an equal-signature point was already
    // expanded somewhere else in the search.
    for (size_t d = prefix.size(); d < one.points.size(); ++d) {
      const DfsChooser::Point& pt = one.points[d];
      if (pt.preemptive && preemptions >= cfg.max_preemptions) {
        result.bounded_branches += pt.branches - 1;
        continue;
      }
      if (cfg.prune && !expanded.insert(pt.sig).second) {
        result.pruned_branches += pt.branches - 1;
        continue;
      }
      ++result.decision_points;
      std::vector<uint32_t> base(prefix);
      base.reserve(d + 1);
      for (size_t i = prefix.size(); i < d; ++i) {
        base.push_back(one.points[i].chosen);  // Always 0 for free points.
      }
      for (uint32_t c = pt.branches; c-- > 1;) {
        std::vector<uint32_t> next(base);
        next.push_back(c);
        work.push_back(std::move(next));
      }
    }
  }
  return result;
}

}  // namespace litmus
