// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/fault/fault_injector.h"

#include "src/common/defs.h"

namespace asffault {

using asfcommon::AbortCause;
using asfsim::AccessKind;

namespace {

// Whether an injected `cause` has any effect on a core that is not inside a
// speculative region. Interrupts and page faults still get serviced (latency
// only); the region-only causes have no non-speculative analog.
bool AppliesOutsideRegion(AbortCause cause) {
  return cause == AbortCause::kInterrupt || cause == AbortCause::kPageFault;
}

}  // namespace

FaultInjector::FaultInjector(const FaultSchedule& schedule, uint32_t num_cores)
    : schedule_(schedule), num_cores_(num_cores), rng_(schedule.seed) {
  states_.resize(schedule_.rules.size());
  for (RuleState& s : states_) {
    s.seen.assign(num_cores_, 0);
    s.armed.assign(num_cores_, 0);
  }
}

InjectionOutcome FaultInjector::OnAccess(uint32_t core, AccessKind kind, bool region_active) {
  ASF_CHECK(core < num_cores_);
  InjectionOutcome out;
  for (size_t i = 0; i < schedule_.rules.size(); ++i) {
    const FaultRule& rule = schedule_.rules[i];
    RuleState& state = states_[i];

    // kAtAttempt rules arm on SPECULATE (the attempt boundary) and fire at
    // the first in-region access of that attempt; counting happens even for
    // exhausted rules so `every` strides stay aligned with the run.
    if (rule.trigger == Trigger::kAtAttempt && kind == AccessKind::kSpeculate &&
        (rule.core == kAnyCore || rule.core == core)) {
      uint64_t n = ++state.seen[core];
      bool targeted = (n == rule.attempt) ||
                      (rule.every != 0 && n > rule.attempt && (n - rule.attempt) % rule.every == 0);
      if (targeted) {
        state.armed[core] = 1;
      }
    }

    if (out.cause != AbortCause::kNone) {
      continue;  // A rule already fired at this access; keep counters moving.
    }
    if (!RuleApplies(rule, state, core)) {
      continue;
    }

    bool fire = false;
    switch (rule.trigger) {
      case Trigger::kRate:
        // Draw only when the rule could fire here: memory access (rate rules
        // perturb the instruction stream, not the region-control ops), and
        // either an active region to abort or a cause with a latency-only
        // effect.
        if (asfsim::IsMemoryAccess(kind) && (region_active || AppliesOutsideRegion(rule.cause))) {
          fire = rng_.NextDouble() < rule.rate;
        }
        break;
      case Trigger::kAtAttempt:
        // Fires at the first in-region access *after* the arming SPECULATE,
        // before that access performs any coherence traffic of its own.
        if (state.armed[core] != 0 && region_active && kind != AccessKind::kSpeculate) {
          fire = true;
          state.armed[core] = 0;
        }
        break;
      case Trigger::kBully:
        // The bully wins a conflict probe just as the victim reaches COMMIT.
        if (kind == AccessKind::kCommit && region_active) {
          uint64_t n = ++state.seen[core];
          fire = (n % rule.every) == 0;
        }
        break;
    }
    if (!fire) {
      continue;
    }
    if (!region_active && rule.cost == 0) {
      continue;  // Nothing to abort and no latency to charge: no effect.
    }

    ++state.fired;
    ++injected_[static_cast<size_t>(rule.cause)];
    out.cause = rule.cause;
    out.extra_latency += rule.cost;
    // With no active region the event is serviced, charging latency only.
    out.abort = region_active;
  }
  return out;
}

uint64_t FaultInjector::total_injected() const {
  uint64_t total = 0;
  for (uint64_t n : injected_) {
    total += n;
  }
  return total;
}

void FaultInjector::ResetCounts() {
  injected_.fill(0);
  for (size_t i = 0; i < states_.size(); ++i) {
    states_[i].fired = 0;
  }
}

}  // namespace asffault
