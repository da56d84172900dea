// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Contention management for the TM runtimes.
//
// The paper's policy (Sec. 3.2) is jittered exponential backoff, with
// capacity overflows and an exhausted retry budget going to the fallback. A
// ContentionPolicy makes that decision in one place: after every aborted
// attempt the retry driver (tx_driver.h) asks the policy what to do next,
// and the policy answers with one of three actions. The modeled backoff
// cycle counts are computed here and nowhere else. The runtimes have no
// backoff settings of their own: each one's policy is an ExpBackoffParams
// value in its params (kAsfTmBackoff, kPhasedTmBackoff, kTinyStmBackoff,
// kElisionBackoff by default) seeded from the runtime's rng_seed.
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
#include <optional>
#include <string>
#include <vector>

#include "src/common/abort_cause.h"
#include "src/common/random.h"

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
// immediately is free and does not count against the retry budget.
inline bool IsTransientCause(asfcommon::AbortCause cause) {
  return cause == asfcommon::AbortCause::kPageFault ||
         cause == asfcommon::AbortCause::kInterrupt;
}

struct ExpBackoffParams {
  // Jittered exponential backoff: after the n-th counted retry the wait is
  // uniform in [w/2, w] with w = base_cycles << min(n, shift_cap). A zero
  // wait (base_cycles 0) is an immediate retry.
  uint64_t base_cycles = 64;
  uint32_t shift_cap = 8;
  // Counted retries before kSerialize. UINT32_MAX = never serialize.
  uint32_t max_retries = 8;
  // The paper's policy: capacity overflows go straight to the fallback
  // (retrying an over-capacity transaction cannot help). Off = "retry and
  // hope", counting capacity against the retry budget like contention.
  bool capacity_serializes = true;
  // Per-thread RNG seed = the runtime's rng_seed + tid * seed_stride;
  // stride 0 shares one generator across threads (kElisionBackoff).
  uint64_t seed_stride = 0x9E37;
};

// Always retry immediately; never backs off, never serializes. This preset
// deliberately has NO forward-progress guarantee — it exists so the
// fault-injection tests can construct a livelock/starvation and watch the
// watchdog fire.
inline constexpr ExpBackoffParams kNoBackoff{
    .base_cycles = 0, .max_retries = UINT32_MAX, .capacity_serializes = false};

// The per-block contention manager: per-thread retry budgets and jitter
// RNGs over one ExpBackoffParams. Threads are dense small integers (core
// ids).
class ContentionPolicy {
 public:
  ContentionPolicy(const ExpBackoffParams& params, uint64_t seed)
      : params_(params), seed_(seed) {}

  // A new atomic block begins on `tid`: its retry budget is full again.
  void OnBlockStart(uint32_t tid) { SlotFor(tid).retries = 0; }

  // One attempt of `tid`'s current block aborted with `cause`; decide what
  // the runtime does next. Never called for the runtime-mechanism causes
  // (kRestartSerial, kUserAbort, kMallocRefill) or for kNone.
  PolicyDecision OnAbort(uint32_t tid, asfcommon::AbortCause cause);

 private:
  struct Slot {
    uint32_t retries = 0;
    asfcommon::Rng rng;
  };

  // Grows the slots to cover `tid`, seeding each new slot's generator.
  Slot& SlotFor(uint32_t tid);

  const ExpBackoffParams params_;
  const uint64_t seed_;
  std::vector<Slot> slots_;
};

// Parses a policy spec string into the params it names:
//   "exp-backoff[:base=<n>,cap=<n>,retries=<n>,capacity-serial=<0|1>]"
//     (unset options keep the ExpBackoffParams defaults)
//   "no-backoff" (kNoBackoff)
// Returns nullopt (with a message in *error if non-null) on malformed specs.
std::optional<ExpBackoffParams> MakeContentionPolicy(const std::string& spec,
                                                     std::string* error = nullptr);

}  // namespace asftm

#endif  // SRC_TM_CONTENTION_POLICY_H_
