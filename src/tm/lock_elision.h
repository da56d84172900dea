// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Speculative lock elision on ASF (paper Sec. 3: "our software stack also
// supports existing software with the help of lock elision [Rajwar &
// Goodman]").
//
// An ElidableLock lets lock-based critical sections run concurrently as ASF
// speculative regions: an elided section starts a region and LOCK-MOV-reads
// the lock word instead of writing it — the lock stays visibly free, so
// other elided sections proceed in parallel, while any real acquisition (the
// fallback) writes the word and thereby aborts all elisions monitoring it.
// The lock is a RetryDriver runtime: the word is the hardware attempt's
// gate, and the contention policy decides when a section stops eliding and
// takes the lock for real (its kSerialize action).
//
// Sections are TmRuntime atomic blocks. Elided, the body gets the hardware
// Tx handle (transactional accesses); under the real lock it gets the
// serial one (plain accesses). CriticalSection() offers the classic
// interface for bodies that issue their own accesses. Elided attempts count
// as hardware attempts/commits, real acquisitions as serial ones (taking the
// lock *is* serialization), so attempts = commits + aborts holds like for
// the other runtimes.
//
// ElisionTm is one ElidableLock with warm allocators behind the TmRuntime
// interface — every atomic block a critical section on the single lock — so
// the harnesses and the fault-injection stress tests drive lock elision
// through the same ABI as the TM runtimes.
#ifndef SRC_TM_LOCK_ELISION_H_
#define SRC_TM_LOCK_ELISION_H_

#include <functional>
#include <string>

#include "src/asf/machine.h"
#include "src/sim/sync.h"
#include "src/tm/contention_policy.h"
#include "src/tm/tx_driver.h"

namespace asftm {

// Lock elision's default contention management: four counted retries with
// a shorter backoff (shift cap 6), after which the section takes the real
// lock. An oversized section keeps retrying until the budget is spent
// (capacity does not short-circuit to the lock), and all threads share one
// jitter stream (stride 0). Seeded from ElisionParams::rng_seed.
inline constexpr ExpBackoffParams kElisionBackoff{
    .shift_cap = 6, .max_retries = 4, .capacity_serializes = false, .seed_stride = 0};

struct ElisionParams {
  uint64_t rng_seed = 0xE11DE;
  // Disables elision entirely (plain lock; the comparison baseline).
  bool always_acquire = false;
  // Contention management; kSerialize decisions take the real lock.
  ExpBackoffParams policy = kElisionBackoff;
};

class ElidableLock : public RetryDriver {
 public:
  ElidableLock(asf::Machine& machine, const ElisionParams& params = ElisionParams());

  std::string name() const override;

  // A critical-section body that issues its own accesses; `elided` tells it
  // which mode it is in (it must use transactional accesses when elided;
  // plain accesses are fine when held).
  using Body = std::function<asfsim::Task<void>(bool elided)>;

  // Executes `body` as a critical section protected by this lock, eliding
  // when possible.
  asfsim::Task<void> CriticalSection(asfsim::SimThread& t, Body body);

  // Statistics.
  uint64_t elided_commits() const { return TotalStats().hw_commits; }
  uint64_t real_acquisitions() const { return TotalStats().serial_attempts; }
  uint64_t elision_aborts() const {
    TxStats s = TotalStats();
    return s.hw_attempts - s.hw_commits;
  }

 private:
  struct alignas(asfcommon::kCacheLineBytes) LockWord {
    uint64_t word = 0;
  };

  // The real acquisition: the store aborts every concurrent elision.
  asfsim::Task<bool> Fallback(asfsim::SimThread& t, TxThread& pt, BodyFn& body,
                              uint32_t retry) override;

  LockWord* lock_word_;        // Arena-allocated; the elisions' gate.
  asfsim::SimMutex fallback_;  // Queue discipline for real acquisitions.
};

struct ElisionTmParams {
  ElisionParams lock;
  // Modeled instruction counts matching the other runtimes' software paths.
  uint32_t barrier_instructions = HwCosts().barrier_instructions;
  uint32_t alloc_instructions = HwCosts().alloc_instructions;
};

class ElisionTm final : public ElidableLock {
 public:
  ElisionTm(asf::Machine& machine, const ElisionTmParams& params = ElisionTmParams());
};

}  // namespace asftm

#endif  // SRC_TM_LOCK_ELISION_H_
