// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Pluggable contention management for the TM runtimes.
//
// The paper's policy (Sec. 3.2) is jittered exponential backoff, with
// capacity overflows and an exhausted retry budget going to the fallback. A
// ContentionPolicy makes that decision in one place: after every aborted
// attempt the retry driver (tx_driver.h) asks the policy what to do next,
// and the policy answers with one of three actions. The modeled backoff
// cycle counts are computed here and nowhere else. The runtimes have no
// backoff settings of their own: each one's default policy is a named
// ExpBackoffParams constant (kAsfTmBackoff, kPhasedTmBackoff,
// kTinyStmBackoff, kElisionBackoff) seeded from the runtime's rng_seed, and
// any other behaviour is a policy passed in its params.
//
// Division of labor: causes that are *mechanism*, not contention management,
// stay in the driver — kRestartSerial (a fallback raced past the gate,
// dispatch again), kUserAbort (language-level cancel, no retry),
// kMallocRefill (refill nonspeculatively, retry). Every other cause is
// routed here.
//
// What kSerialize means is the runtime's fallback: ASF-TM enters
// serial-irrevocable mode, PhasedTM flips the system to the software phase,
// lock elision takes the real lock. TinySTM has no fallback and treats
// kSerialize as an immediate retry (the STM's word-granular conflict
// detection does not livelock the way requester-wins hardware can).
#ifndef SRC_TM_CONTENTION_POLICY_H_
#define SRC_TM_CONTENTION_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/abort_cause.h"

namespace asftm {

enum class PolicyAction : uint8_t {
  kRetryNow,      // Retry immediately.
  kBackoffRetry,  // Sleep `backoff_cycles`, then retry.
  kSerialize,     // Give up on optimistic execution; take the fallback.
};

struct PolicyDecision {
  PolicyAction action = PolicyAction::kRetryNow;
  uint64_t backoff_cycles = 0;  // Only meaningful for kBackoffRetry.
};

// Transient causes: the adverse event has been serviced by the time the
// retry loop runs (the page is mapped, the tick has passed), so retrying
// immediately is free and the built-in policies do not count these against
// any retry budget.
inline bool IsTransientCause(asfcommon::AbortCause cause) {
  return cause == asfcommon::AbortCause::kPageFault ||
         cause == asfcommon::AbortCause::kInterrupt;
}

class ContentionPolicy {
 public:
  virtual ~ContentionPolicy() = default;

  // Stable name for tables/diagnostics (matches the factory spec prefix).
  virtual std::string name() const = 0;

  // A new atomic block begins on `tid`: reset per-block state (retry
  // budgets). Threads are dense small integers (core ids). `site` is the
  // static id of the atomic block in the program (also a dense small
  // integer; 0 = unattributed) — the `adaptive` policy keys its learned
  // abort-mix window on it, so two blocks that behave differently adapt
  // independently even on one thread, and a site's lesson transfers across
  // threads. Policies without learned state ignore it.
  virtual void OnBlockStart(uint32_t tid, uint32_t site = 0) = 0;

  // One attempt of `tid`'s current block aborted with `cause`; decide what
  // the runtime does next. Never called for the runtime-mechanism causes
  // (kRestartSerial, kUserAbort, kMallocRefill) or for kNone. `site` must
  // match the preceding OnBlockStart.
  virtual PolicyDecision OnAbort(uint32_t tid, asfcommon::AbortCause cause,
                                 uint32_t site = 0) = 0;
};

// --- Built-in policies -------------------------------------------------------

struct ExpBackoffParams {
  // Jittered exponential backoff: after the n-th counted retry the wait is
  // uniform in [w/2, w] with w = base_cycles << min(n, shift_cap).
  uint64_t base_cycles = 64;
  uint32_t shift_cap = 8;
  // Counted retries before kSerialize. UINT32_MAX = never serialize.
  uint32_t max_retries = 8;
  // The paper's policy: capacity overflows go straight to the fallback
  // (retrying an over-capacity transaction cannot help). Off = "retry and
  // hope", counting capacity against the retry budget like contention.
  bool capacity_serializes = true;
  // Per-thread RNG seed = seed + tid * seed_stride; stride 0 shares one
  // generator across threads (kElisionBackoff).
  uint64_t seed = 0x5EED;
  uint64_t seed_stride = 0x9E37;
};

// The default policy for every runtime; reproduces the paper's Sec. 3.2
// contention management.
std::shared_ptr<ContentionPolicy> MakeExpBackoffPolicy(const ExpBackoffParams& params);

// Capped retry without backoff: up to `max_retries` immediate retries, then
// serialize. (The "aggressive" baseline from the CM literature.)
std::shared_ptr<ContentionPolicy> MakeCappedRetryPolicy(uint32_t max_retries, uint64_t seed = 0);

// Any non-transient abort serializes at once (minimal wasted work, minimal
// concurrency).
std::shared_ptr<ContentionPolicy> MakeImmediateSerializePolicy();

// Always retry immediately; never backs off, never serializes. This policy
// deliberately has NO forward-progress guarantee — it exists so the
// fault-injection tests can construct a livelock/starvation and watch the
// watchdog fire.
std::shared_ptr<ContentionPolicy> MakeNoBackoffPolicy();

struct AdaptivePolicyParams {
  // Sliding window (per thread) of recent counted abort causes.
  uint32_t window = 32;
  // Retry budget at a fully contention-dominated mix; shrinks toward
  // min_retries as "hopeless" causes (capacity/disallowed/syscall — events
  // that repeat no matter how long we wait) dominate the window.
  uint32_t max_retries = 8;
  uint32_t min_retries = 2;
  uint64_t base_cycles = 64;
  uint32_t shift_cap = 8;
  uint64_t seed = 0xADA57;
  uint64_t seed_stride = 0x9E37;
};

// Serializes early when the observed abort-cause mix says optimism is not
// paying: a hopeless cause seen twice within one block serializes, and the
// per-block retry budget scales down with the window's hopeless share. The
// window is keyed per SITE (shared across threads), so distinct atomic
// blocks adapt independently; retry counters and jitter RNGs stay per
// thread.
std::shared_ptr<ContentionPolicy> MakeAdaptivePolicy(const AdaptivePolicyParams& params);

struct KarmaPolicyParams {
  // Counted aborts of the current block ("karma" — priority earned by
  // losing) at which the block escalates to the runtime's guaranteed-win
  // fallback. Backoff waits *shrink* as karma grows, so a repeatedly beaten
  // transaction yields less and less before claiming the fallback.
  uint32_t serialize_threshold = 8;
  uint64_t base_cycles = 64;
  uint32_t shift_cap = 8;
  uint64_t seed = 0xCA12A;
  uint64_t seed_stride = 0x9E37;
};

// Karma-style priority contention management (conflict-count-weighted): each
// counted abort raises the block's priority, which shortens its backoff;
// at `serialize_threshold` the block takes the fallback, whose execution no
// adversary can abort (ASF-TM serial-irrevocable mode has no speculative
// region to snipe). This bounds the losses of any transaction under a
// perpetually winning adversary — the progress property the bully-schedule
// litmus tests pin.
std::shared_ptr<ContentionPolicy> MakeKarmaPolicy(const KarmaPolicyParams& params);

struct GreedyPolicyParams {
  // Retry budget for blocks that do NOT hold the oldest active timestamp.
  uint32_t max_retries = 8;
  uint64_t base_cycles = 64;
  uint32_t shift_cap = 8;
  uint64_t seed = 0x62EED;
  uint64_t seed_stride = 0x9E37;
};

// Greedy-style timestamp priority: every block start takes a globally
// increasing stamp; when the OLDEST active block aborts it serializes at
// once (its age gives it priority, and the fallback makes the win
// unconditional), while younger blocks back off within a retry budget. The
// age order is a heuristic: a committed block's stamp stays registered until
// the thread's next block start, so "oldest active" is exact only while all
// threads keep running blocks (true in all our workloads).
std::shared_ptr<ContentionPolicy> MakeGreedyPolicy(const GreedyPolicyParams& params);

// Parses a policy spec string:
//   "exp-backoff[:base=<n>,cap=<n>,retries=<n>,capacity-serial=<0|1>]"
//   "capped-retry[:retries=<n>]"
//   "serialize"
//   "no-backoff"
//   "adaptive[:window=<n>,retries=<n>]"
//   "karma[:threshold=<n>,base=<n>,cap=<n>]"
//   "greedy[:retries=<n>,base=<n>,cap=<n>]"
// `seed` seeds the policy's jitter RNG. Returns nullptr (with a message in
// *error if non-null) on malformed specs.
std::shared_ptr<ContentionPolicy> MakeContentionPolicy(const std::string& spec, uint64_t seed,
                                                       std::string* error = nullptr);

// The spec names accepted by MakeContentionPolicy, for usage messages.
const std::vector<std::string>& ContentionPolicyNames();

}  // namespace asftm

#endif  // SRC_TM_CONTENTION_POLICY_H_
