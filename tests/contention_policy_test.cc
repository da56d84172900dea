// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests of the contention manager (src/tm/contention_policy.h): the
// retry/backoff/serialize decisions it makes per abort cause, the
// jittered-backoff bounds, per-thread retry budgets, determinism under a
// fixed seed, the no-backoff preset, and the spec parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "src/tm/contention_policy.h"

namespace asftm {
namespace {

using asfcommon::AbortCause;

// Drives one block on `tid`: OnBlockStart, then aborts with `cause` until
// the policy says kSerialize; returns the number of retry decisions
// (kRetryNow or kBackoffRetry) granted before serialization.
uint32_t RetriesUntilSerialize(ContentionPolicy& p, uint32_t tid, AbortCause cause,
                               uint32_t give_up = 1000) {
  p.OnBlockStart(tid);
  for (uint32_t n = 0; n < give_up; ++n) {
    if (p.OnAbort(tid, cause).action == PolicyAction::kSerialize) {
      return n;
    }
  }
  return give_up;
}

// --- ExpBackoffPolicy --------------------------------------------------------

TEST(ExpBackoffPolicy, TransientCausesRetryFreeAndUncounted) {
  ExpBackoffParams params;
  params.max_retries = 2;
  ContentionPolicy p(params, 1);
  p.OnBlockStart(0);
  // Any number of page faults / interrupts retries immediately without
  // consuming the budget...
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(p.OnAbort(0, AbortCause::kPageFault).action, PolicyAction::kRetryNow);
    EXPECT_EQ(p.OnAbort(0, AbortCause::kInterrupt).action, PolicyAction::kRetryNow);
  }
  // ...so the full contention budget is still available afterwards.
  EXPECT_EQ(p.OnAbort(0, AbortCause::kContention).action, PolicyAction::kBackoffRetry);
  EXPECT_EQ(p.OnAbort(0, AbortCause::kContention).action, PolicyAction::kBackoffRetry);
  EXPECT_EQ(p.OnAbort(0, AbortCause::kContention).action, PolicyAction::kSerialize);
}

TEST(ExpBackoffPolicy, CapacitySerializesImmediatelyByDefault) {
  ContentionPolicy p(ExpBackoffParams{}, 1);
  p.OnBlockStart(0);
  EXPECT_EQ(p.OnAbort(0, AbortCause::kCapacity).action, PolicyAction::kSerialize);
}

TEST(ExpBackoffPolicy, CapacityCountsAgainstBudgetWhenSerializationOff) {
  ExpBackoffParams params;
  params.capacity_serializes = false;
  params.max_retries = 3;
  ContentionPolicy p(params, 1);
  EXPECT_EQ(RetriesUntilSerialize(p, 0, AbortCause::kCapacity), 3u);
}

TEST(ExpBackoffPolicy, BudgetExhaustionSerializesForEveryCountedCause) {
  for (AbortCause cause : {AbortCause::kContention, AbortCause::kDisallowed,
                           AbortCause::kSyscall}) {
    ExpBackoffParams params;
    params.max_retries = 4;
    ContentionPolicy p(params, 1);
    EXPECT_EQ(RetriesUntilSerialize(p, 0, cause), 4u)
        << asfcommon::AbortCauseName(cause);
  }
}

TEST(ExpBackoffPolicy, OnBlockStartResetsTheBudget) {
  ExpBackoffParams params;
  params.max_retries = 2;
  ContentionPolicy p(params, 1);
  EXPECT_EQ(RetriesUntilSerialize(p, 0, AbortCause::kContention), 2u);
  // A fresh block gets the full budget again.
  EXPECT_EQ(RetriesUntilSerialize(p, 0, AbortCause::kContention), 2u);
}

TEST(ExpBackoffPolicy, BudgetsAreIndependentPerThread) {
  ExpBackoffParams params;
  params.max_retries = 1;
  ContentionPolicy p(params, 1);
  p.OnBlockStart(0);
  p.OnBlockStart(1);
  EXPECT_EQ(p.OnAbort(0, AbortCause::kContention).action, PolicyAction::kBackoffRetry);
  EXPECT_EQ(p.OnAbort(0, AbortCause::kContention).action, PolicyAction::kSerialize);
  // Thread 1's budget is untouched by thread 0's exhaustion.
  EXPECT_EQ(p.OnAbort(1, AbortCause::kContention).action, PolicyAction::kBackoffRetry);
}

TEST(ExpBackoffPolicy, JitteredWaitStaysWithinExponentialBounds) {
  ExpBackoffParams params;
  params.base_cycles = 64;
  params.shift_cap = 3;
  params.max_retries = 1000;  // Never serialize in this test.
  ContentionPolicy p(params, 1);
  p.OnBlockStart(0);
  for (uint32_t retry = 1; retry <= 10; ++retry) {
    PolicyDecision d = p.OnAbort(0, AbortCause::kContention);
    ASSERT_EQ(d.action, PolicyAction::kBackoffRetry);
    uint32_t shift = std::min(retry, params.shift_cap);
    uint64_t max_wait = params.base_cycles << shift;
    EXPECT_GE(d.backoff_cycles, max_wait / 2) << "retry " << retry;
    EXPECT_LE(d.backoff_cycles, max_wait) << "retry " << retry;
  }
}

TEST(ExpBackoffPolicy, SameSeedReplaysTheSameWaitSequence) {
  ExpBackoffParams params;
  params.max_retries = 1000;
  ContentionPolicy a(params, 0xABCDEF);
  ContentionPolicy b(params, 0xABCDEF);
  a.OnBlockStart(0);
  b.OnBlockStart(0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.OnAbort(0, AbortCause::kContention).backoff_cycles,
              b.OnAbort(0, AbortCause::kContention).backoff_cycles);
  }
}

// --- Zero-budget and zero-wait specs ----------------------------------------
// `retries=0` serializes on the first counted abort; `base=0` turns every
// granted retry into an immediate one (no backoff events, no sleep).

// The policy `spec` names, seeded like a runtime would seed it.
ContentionPolicy FromSpec(const std::string& spec) {
  std::string error;
  std::optional<ExpBackoffParams> params = MakeContentionPolicy(spec, &error);
  EXPECT_TRUE(params.has_value()) << spec << ": " << error;
  return ContentionPolicy(params.value_or(ExpBackoffParams{}), 1);
}

TEST(ExpBackoffPolicy, ZeroRetriesSerializesOnFirstNonTransientAbort) {
  ContentionPolicy p = FromSpec("exp-backoff:retries=0");
  for (AbortCause cause : {AbortCause::kContention, AbortCause::kCapacity,
                           AbortCause::kDisallowed, AbortCause::kSyscall}) {
    p.OnBlockStart(0);
    EXPECT_EQ(p.OnAbort(0, AbortCause::kPageFault).action, PolicyAction::kRetryNow);
    EXPECT_EQ(p.OnAbort(0, AbortCause::kInterrupt).action, PolicyAction::kRetryNow);
    PolicyDecision d = p.OnAbort(0, cause);
    EXPECT_EQ(d.action, PolicyAction::kSerialize) << asfcommon::AbortCauseName(cause);
    EXPECT_EQ(d.backoff_cycles, 0u) << asfcommon::AbortCauseName(cause);
  }
}

TEST(ExpBackoffPolicy, ZeroBaseRetriesImmediatelyThenSerializes) {
  for (AbortCause cause : {AbortCause::kContention, AbortCause::kCapacity}) {
    ContentionPolicy p = FromSpec("exp-backoff:base=0,capacity-serial=0,retries=3");
    p.OnBlockStart(0);
    for (int i = 0; i < 3; ++i) {
      PolicyDecision d = p.OnAbort(0, cause);
      EXPECT_EQ(d.action, PolicyAction::kRetryNow) << asfcommon::AbortCauseName(cause);
      EXPECT_EQ(d.backoff_cycles, 0u) << asfcommon::AbortCauseName(cause);
    }
    EXPECT_EQ(p.OnAbort(0, cause).action, PolicyAction::kSerialize)
        << asfcommon::AbortCauseName(cause);
  }
}

TEST(ExpBackoffPolicy, ZeroBaseTransientsDoNotConsumeTheBudget) {
  ContentionPolicy p = FromSpec("exp-backoff:base=0,capacity-serial=0,retries=1");
  p.OnBlockStart(0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(p.OnAbort(0, AbortCause::kInterrupt).action, PolicyAction::kRetryNow);
  }
  EXPECT_EQ(p.OnAbort(0, AbortCause::kContention).action, PolicyAction::kRetryNow);
  EXPECT_EQ(p.OnAbort(0, AbortCause::kContention).action, PolicyAction::kSerialize);
}

// --- kNoBackoff --------------------------------------------------------------

TEST(NoBackoffPolicy, NeverBacksOffAndNeverSerializes) {
  ContentionPolicy p = FromSpec("no-backoff");
  p.OnBlockStart(0);
  for (AbortCause cause : {AbortCause::kContention, AbortCause::kCapacity,
                           AbortCause::kDisallowed, AbortCause::kSyscall,
                           AbortCause::kInterrupt}) {
    for (int i = 0; i < 100; ++i) {
      PolicyDecision d = p.OnAbort(0, cause);
      ASSERT_EQ(d.action, PolicyAction::kRetryNow);
      ASSERT_EQ(d.backoff_cycles, 0u);
    }
  }
}

// --- Factory -----------------------------------------------------------------

TEST(MakeContentionPolicy, BuildsEveryNamedPolicy) {
  std::string error;
  std::optional<ExpBackoffParams> exp = MakeContentionPolicy("exp-backoff", &error);
  ASSERT_TRUE(exp.has_value()) << error;
  // A bare spec is the ExpBackoffParams defaults (kAsfTmBackoff).
  EXPECT_EQ(exp->base_cycles, ExpBackoffParams{}.base_cycles);
  EXPECT_EQ(exp->shift_cap, ExpBackoffParams{}.shift_cap);
  EXPECT_EQ(exp->max_retries, ExpBackoffParams{}.max_retries);
  EXPECT_EQ(exp->capacity_serializes, ExpBackoffParams{}.capacity_serializes);
  EXPECT_EQ(exp->seed_stride, ExpBackoffParams{}.seed_stride);

  std::optional<ExpBackoffParams> none = MakeContentionPolicy("no-backoff", &error);
  ASSERT_TRUE(none.has_value()) << error;
  EXPECT_EQ(none->base_cycles, 0u);
  EXPECT_EQ(none->max_retries, UINT32_MAX);
  EXPECT_FALSE(none->capacity_serializes);
}

TEST(MakeContentionPolicy, ExpBackoffOptionsAreHonored) {
  ContentionPolicy p = FromSpec("exp-backoff:base=32,cap=2,retries=1,capacity-serial=0");
  p.OnBlockStart(0);
  // capacity-serial=0: capacity is counted, and retries=1 grants one retry.
  PolicyDecision d = p.OnAbort(0, AbortCause::kCapacity);
  EXPECT_EQ(d.action, PolicyAction::kBackoffRetry);
  // base=32, cap=2, first retry: wait in [16, 64].
  EXPECT_GE(d.backoff_cycles, 16u);
  EXPECT_LE(d.backoff_cycles, 64u);
  EXPECT_EQ(p.OnAbort(0, AbortCause::kCapacity).action, PolicyAction::kSerialize);
}

TEST(MakeContentionPolicy, RejectsRetiredPolicies) {
  for (const char* name : {"serialize", "capped-retry", "adaptive", "karma", "greedy"}) {
    std::string error;
    EXPECT_FALSE(MakeContentionPolicy(name, &error).has_value()) << name;
    EXPECT_EQ(error, std::string("unknown contention policy '") + name + "'");
  }
}

TEST(MakeContentionPolicy, RejectsMalformedSpecs) {
  struct Case {
    const char* spec;
    const char* message;
  };
  const Case cases[] = {
      {"bogus", "unknown contention policy 'bogus'"},
      {"no-backoff:x=1", "'no-backoff' takes no options"},
      {"exp-backoff:base", "malformed policy option 'base'"},
      {"exp-backoff:base=xy", "bad policy option value in 'base=xy'"},
      {"exp-backoff:bogus=1", "unknown policy option 'bogus'"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(MakeContentionPolicy(c.spec, &error).has_value()) << c.spec;
    EXPECT_EQ(error, c.message) << c.spec;
  }
}

TEST(MakeContentionPolicy, ErrorPointerIsOptional) {
  EXPECT_FALSE(MakeContentionPolicy("bogus", nullptr).has_value());
}

}  // namespace
}  // namespace asftm
