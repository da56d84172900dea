// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests of the litmus-test semantics harness (src/litmus): deterministic
// enumeration per seed, every registered test within its allowed-outcome set
// on every runtime and hardware variant, prune/no-prune outcome-set
// equivalence, the requester-wins mutation check (the harness must lose its
// green light when the machine loses strong isolation), serial-fallback
// irrevocability across the fallback runtimes, policy specs that name the
// default enumerating exactly like it, and the progress pin for exp-backoff
// under an adversary that provably starves the no-backoff control.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/fault/fault_schedule.h"
#include "src/harness/stress.h"
#include "src/litmus/litmus.h"

namespace litmus {
namespace {

using asffault::FaultSchedule;
using asffault::Watchdog;
using harness::RuntimeKind;

// Every runtime the harness claims semantics for (the same matrix
// `asf_explore --litmus all` enumerates).
constexpr RuntimeKind kAllRuntimes[] = {
    RuntimeKind::kAsfTm,      RuntimeKind::kLockElision, RuntimeKind::kPhasedTm,
    RuntimeKind::kTinyStm,    RuntimeKind::kGlobalLock,  RuntimeKind::kSequential,
};

LitmusConfig ConfigFor(RuntimeKind kind) {
  LitmusConfig cfg;
  cfg.runtime = kind;
  return cfg;
}

std::string Describe(const LitmusResult& r) {
  std::string out = r.test + " on " + r.runtime + ":";
  for (const std::string& v : r.violations) {
    out += "\n  " + v;
  }
  if (r.hit_cap) {
    out += "\n  interleaving cap hit";
  }
  return out;
}

// --- Enumeration determinism -------------------------------------------------

TEST(LitmusHarness, EnumerationIsDeterministicPerSeed) {
  const LitmusTest* test = FindTest("publication");
  ASSERT_NE(test, nullptr);
  for (RuntimeKind kind : {RuntimeKind::kAsfTm, RuntimeKind::kTinyStm}) {
    LitmusConfig cfg = ConfigFor(kind);
    LitmusResult a = RunLitmus(*test, cfg);
    LitmusResult b = RunLitmus(*test, cfg);
    EXPECT_EQ(a.interleavings, b.interleavings) << a.runtime;
    EXPECT_EQ(a.decision_points, b.decision_points) << a.runtime;
    EXPECT_EQ(a.pruned_branches, b.pruned_branches) << a.runtime;
    EXPECT_EQ(a.bounded_branches, b.bounded_branches) << a.runtime;
    EXPECT_EQ(a.outcomes, b.outcomes) << a.runtime;
  }
}

// A spec naming ASF-TM's default policy must enumerate exactly like the
// default: every interleaving's runtime owns fresh policy state seeded from
// its rng_seed, so a replayed prefix sees the waits its recording run saw.
TEST(LitmusHarness, DefaultPolicySpecEnumeratesLikeTheDefault) {
  for (const LitmusTest* test : AllTests()) {
    LitmusConfig spec = ConfigFor(RuntimeKind::kAsfTm);
    spec.policy = "exp-backoff";
    LitmusResult a = RunLitmus(*test, ConfigFor(RuntimeKind::kAsfTm));
    LitmusResult b = RunLitmus(*test, spec);
    EXPECT_EQ(a.interleavings, b.interleavings) << a.test;
    EXPECT_EQ(a.decision_points, b.decision_points) << a.test;
    EXPECT_EQ(a.pruned_branches, b.pruned_branches) << a.test;
    EXPECT_EQ(a.outcomes, b.outcomes) << a.test;
  }
}

// --- The full semantics matrix -----------------------------------------------

TEST(LitmusHarness, EveryTestStaysWithinItsAllowedSetOnEveryRuntime) {
  for (const LitmusTest* test : AllTests()) {
    for (RuntimeKind kind : kAllRuntimes) {
      LitmusResult r = RunLitmus(*test, ConfigFor(kind));
      EXPECT_TRUE(r.ok()) << Describe(r);
      EXPECT_GT(r.interleavings, 0u) << Describe(r);
    }
  }
}

TEST(LitmusHarness, EveryTestPassesOnEveryHardwareVariant) {
  const asf::AsfVariant variants[] = {asf::AsfVariant::Llb8(), asf::AsfVariant::Llb256(),
                                      asf::AsfVariant::Llb8WithL1(),
                                      asf::AsfVariant::Llb256WithL1(),
                                      asf::AsfVariant::Asf1Llb256()};
  for (const LitmusTest* test : AllTests()) {
    for (const asf::AsfVariant& v : variants) {
      LitmusConfig cfg = ConfigFor(RuntimeKind::kAsfTm);
      cfg.variant = v;
      LitmusResult r = RunLitmus(*test, cfg);
      EXPECT_TRUE(r.ok()) << Describe(r) << "\n  variant: " << v.Name();
    }
  }
}

// The ASF1 static-set matrix, over every runtime. The interesting cell is
// dirty-read on the HTM runtimes: the two-store transaction statically
// exceeds the ASF1 protected set (the second line arrives after the first
// store), so every attempt aborts with kCapacity, the writer demotes to its
// fallback path, and the partial state r1=1 r2=0 becomes legitimately
// reachable — the allowed set widens to match (see FallbackWeaklyIsolated
// in src/litmus/tests.cc).
TEST(LitmusHarness, Asf1StaticSetMatrixPassesAndWidensTheDirtyReadSet) {
  const asf::AsfVariant asf1 = asf::AsfVariant::Asf1Llb256();
  for (const LitmusTest* test : AllTests()) {
    for (RuntimeKind kind : kAllRuntimes) {
      LitmusConfig cfg = ConfigFor(kind);
      cfg.variant = asf1;
      LitmusResult r = RunLitmus(*test, cfg);
      EXPECT_TRUE(r.ok()) << Describe(r) << "\n  variant: " << asf1.Name();
    }
  }
  // The widened set must test something: the dirty read actually surfaces
  // in the fallback window on the demoting runtimes.
  const LitmusTest* dirty = FindTest("dirty-read");
  ASSERT_NE(dirty, nullptr);
  for (RuntimeKind kind : {RuntimeKind::kAsfTm, RuntimeKind::kPhasedTm}) {
    LitmusConfig cfg = ConfigFor(kind);
    cfg.variant = asf1;
    LitmusResult r = RunLitmus(*dirty, cfg);
    EXPECT_GT(r.outcomes.count("r1=1 r2=0"), 0u)
        << "the fallback-window dirty read never surfaced under ASF1 on "
        << r.runtime;
    // And the same runtime on the plain LLB-256 variant still forbids it.
    EXPECT_FALSE(
        dirty->Allowed(kind, asf::AsfVariant::Llb256(), "r1=1 r2=0"));
    EXPECT_TRUE(dirty->Allowed(kind, asf1, "r1=1 r2=0"));
  }
}

// The weakly isolated STM must actually REACH the states the strong runtimes
// forbid — otherwise the allowed-set distinction tests nothing.
TEST(LitmusHarness, WeakIsolationOutcomesAreReachableOnTinyStm) {
  const LitmusTest* test = FindTest("dirty-read");
  ASSERT_NE(test, nullptr);
  LitmusResult stm = RunLitmus(*test, ConfigFor(RuntimeKind::kTinyStm));
  EXPECT_TRUE(stm.ok()) << Describe(stm);
  EXPECT_GT(stm.outcomes.count("r1=1 r2=0"), 0u)
      << "the dirty read never surfaced on the write-through STM";
  // And the strongly isolated hardware must NOT reach it (checked by the
  // allowed set, restated here as an explicit reachability assertion).
  LitmusResult asf = RunLitmus(*test, ConfigFor(RuntimeKind::kAsfTm));
  EXPECT_TRUE(asf.ok()) << Describe(asf);
  EXPECT_EQ(asf.outcomes.count("r1=1 r2=0"), 0u);
}

// --- Pruning soundness -------------------------------------------------------

// The signature memo may skip schedules, never outcomes: the reachable
// outcome SET must match an unpruned enumeration exactly.
TEST(LitmusHarness, PruningPreservesTheReachableOutcomeSet) {
  for (const char* name : {"dirty-read", "publication", "write-skew"}) {
    const LitmusTest* test = FindTest(name);
    ASSERT_NE(test, nullptr) << name;
    LitmusConfig cfg = ConfigFor(RuntimeKind::kAsfTm);
    LitmusResult pruned = RunLitmus(*test, cfg);
    cfg.prune = false;
    LitmusResult full = RunLitmus(*test, cfg);
    ASSERT_TRUE(pruned.ok()) << Describe(pruned);
    ASSERT_TRUE(full.ok()) << Describe(full);
    std::set<Outcome> pruned_set, full_set;
    for (const auto& [o, n] : pruned.outcomes) {
      pruned_set.insert(o);
    }
    for (const auto& [o, n] : full.outcomes) {
      full_set.insert(o);
    }
    EXPECT_EQ(pruned_set, full_set) << name;
    EXPECT_GT(pruned.pruned_branches, 0u) << name << ": the memo never pruned anything";
  }
}

// --- Mutation check ----------------------------------------------------------

// Sensitivity: with requester-wins deliberately broken for plain loads the
// dirty-read litmus MUST fail on the strongly isolated hardware. A harness
// that stays green under this mutation has lost its teeth.
TEST(LitmusHarness, BrokenRequesterWinsIsCaughtByTheDirtyReadTest) {
  const LitmusTest* test = FindTest("dirty-read");
  ASSERT_NE(test, nullptr);
  LitmusConfig cfg = ConfigFor(RuntimeKind::kAsfTm);
  cfg.break_requester_wins = true;
  LitmusResult r = RunLitmus(*test, cfg);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.violations.empty());
  // The mutation must not perturb the weakly isolated STM, which never
  // relied on requester-wins in the first place.
  LitmusResult stm = RunLitmus(*test, [] {
    LitmusConfig c = ConfigFor(RuntimeKind::kTinyStm);
    c.break_requester_wins = true;
    return c;
  }());
  EXPECT_TRUE(stm.ok()) << Describe(stm);
}

// --- Serial-fallback irrevocability ------------------------------------------

// The serial-irrevocable litmus injects faults that force the fallback and
// its CheckStats asserts no serial execution ever aborted. Pin it explicitly
// on every runtime with a distinct fallback mechanism: ASF-TM's
// serial-irrevocable mode, PhasedTM's software phase, lock elision's real
// lock acquisition.
TEST(LitmusHarness, SerialFallbackIsIrrevocableOnEveryFallbackRuntime) {
  const LitmusTest* test = FindTest("serial-irrevocable");
  ASSERT_NE(test, nullptr);
  for (RuntimeKind kind :
       {RuntimeKind::kAsfTm, RuntimeKind::kPhasedTm, RuntimeKind::kLockElision}) {
    LitmusResult r = RunLitmus(*test, ConfigFor(kind));
    EXPECT_TRUE(r.ok()) << Describe(r);
  }
}

// --- Progress pins -----------------------------------------------------------

// An always-winning conflicting probe aimed at core 0's first access: core 1
// runs undisturbed, so a policy without a fallback loses every race while
// the rest of the machine commits — the constructed starvation from
// fault_test.cc, reused here to pin the fallback's progress guarantee.
harness::StressConfig SniperConfig(const std::string& policy) {
  harness::StressConfig cfg;
  cfg.intset.structure = "list";
  cfg.intset.key_range = 32;
  cfg.intset.initial_size = 1;  // Keep the (also sniped) population cheap.
  cfg.intset.update_pct = 100;
  cfg.intset.threads = 2;
  cfg.intset.ops_per_thread = 50;
  cfg.intset.runtime = RuntimeKind::kAsfTm;
  cfg.intset.seed = 1;
  cfg.intset.contention_policy = policy;
  std::string error;
  EXPECT_TRUE(FaultSchedule::Parse("seed 11\nat contention attempt=1 every=1 core=0 max=400\n",
                                   &cfg.schedule, &error))
      << error;
  cfg.watchdog.starvation_attempts = 200;
  return cfg;
}

TEST(ProgressGuarantee, SniperProvablyStarvesTheNoBackoffControl) {
  harness::StressResult r = harness::RunStress(SniperConfig("no-backoff"));
  EXPECT_TRUE(r.watchdog_fired);
  EXPECT_EQ(r.progress.verdict, Watchdog::Verdict::kStarvation);
  ASSERT_EQ(r.progress.starved_cores.size(), 1u);
  EXPECT_EQ(r.progress.starved_cores[0], 0u);
  // Starving is not corrupting: committed state stays consistent throughout.
  EXPECT_TRUE(r.invariant_violation.empty()) << r.invariant_violation;
}

TEST(ProgressGuarantee, ExpBackoffEscapesTheScheduleThatStarvesNoBackoff) {
  harness::StressResult r = harness::RunStress(SniperConfig("exp-backoff"));
  EXPECT_FALSE(r.watchdog_fired) << r.watchdog_diagnosis;
  EXPECT_EQ(r.progress.verdict, Watchdog::Verdict::kProgress);
  EXPECT_TRUE(r.progress.starved_cores.empty());
  EXPECT_TRUE(r.invariant_violation.empty()) << r.invariant_violation;
  // The escape hatch is the serial-irrevocable fallback, not luck.
  EXPECT_GT(r.intset.tm.serial_commits, 0u);
}

}  // namespace
}  // namespace litmus
