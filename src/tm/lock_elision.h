// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Speculative lock elision on ASF (paper Sec. 3: "our software stack also
// supports existing software with the help of lock elision [Rajwar &
// Goodman]").
//
// An ElidableLock lets lock-based critical sections run concurrently as ASF
// speculative regions: Acquire() starts a region and LOCK-MOV-reads the lock
// word instead of writing it — the lock stays visibly free, so other elided
// sections proceed in parallel, while any real acquisition (the fallback
// path) writes the word and thereby aborts all elisions monitoring it.
// Release() commits the region. The ContentionPolicy decides when a section
// stops eliding and takes the lock for real (its kSerialize action).
//
// The critical-section body must use transactional accesses for shared data
// (the LOCK MOV annotation a compiler would emit under elision); the
// CriticalSection() helper drives the retry/fallback loop.
//
// ElisionTm wraps one ElidableLock behind the TmRuntime interface — every
// atomic block becomes a critical section on the single lock — so the
// harnesses and the fault-injection stress tests can drive lock elision
// through the same ABI as the TM runtimes.
#ifndef SRC_TM_LOCK_ELISION_H_
#define SRC_TM_LOCK_ELISION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/asf/machine.h"
#include "src/tm/contention_policy.h"
#include "src/sim/sync.h"
#include "src/tm/tm_api.h"
#include "src/tm/tm_stats.h"
#include "src/tm/tx_allocator.h"

namespace asftm {

struct ElisionParams {
  uint32_t max_elision_retries = 4;  // Then take the lock for real.
  uint64_t backoff_base_cycles = 64;
  uint64_t rng_seed = 0xE11DE;
  // Disables elision entirely (plain lock; the comparison baseline).
  bool always_acquire = false;
  // Contention management. Null constructs the default exponential-backoff
  // policy from the knobs above; kSerialize decisions take the real lock.
  std::shared_ptr<ContentionPolicy> policy;
};

class ElidableLock {
 public:
  ElidableLock(asf::Machine& machine, const ElisionParams& params = ElisionParams());

  // The critical-section body; runs speculatively (elided) or under the real
  // lock. `elided` tells the body which mode it is in (it must use
  // transactional accesses when elided; plain accesses are fine when held).
  using Body = std::function<asfsim::Task<void>(bool elided)>;

  // Executes `body` as a critical section protected by this lock, eliding
  // when possible. When `stats` is non-null the attempt outcomes are folded
  // into it (elided attempts as hardware, real acquisitions as serial).
  // `site` is the section's static site id, forwarded to the contention
  // policy (0 = unattributed).
  asfsim::Task<void> CriticalSection(asfsim::SimThread& t, Body body,
                                     TxStats* stats = nullptr, uint32_t site = 0);

  // --- Building blocks (used by CriticalSection and ElisionTm) -------------

  // One elided attempt: waits for the lock to look free, speculates, runs
  // `body(true)`, commits. Returns kNone on commit, the abort cause
  // otherwise. Emits the kElision lifecycle events (with `retry` as the
  // attempt ordinal within the block) and updates `stats`.
  asfsim::Task<asfcommon::AbortCause> TryElide(asfsim::SimThread& t, const Body& body,
                                               TxStats* stats, uint32_t retry);

  // The fallback path: takes the lock for real (the store aborts every
  // concurrent elision), runs `body(false)`, releases. Emits the kLock
  // lifecycle events and updates `stats`.
  asfsim::Task<void> RunLocked(asfsim::SimThread& t, const Body& body, TxStats* stats);

  // Policy-computed backoff wait with the lifecycle events and stats.
  asfsim::Task<void> Backoff(asfsim::SimThread& t, uint64_t wait, uint32_t retry,
                             TxStats* stats);

  ContentionPolicy& policy() { return *policy_; }
  bool always_acquire() const { return params_.always_acquire; }

  // Statistics.
  uint64_t elided_commits() const { return elided_commits_; }
  uint64_t real_acquisitions() const { return real_acquisitions_; }
  uint64_t elision_aborts() const { return elision_aborts_; }

 private:
  struct alignas(asfcommon::kCacheLineBytes) LockWord {
    uint64_t word = 0;
  };

  // `rs`/`ws` receive the protected-set sizes just before COMMIT (the commit
  // clears the ASF context), for the TxCommit lifecycle event.
  asfsim::Task<void> ElidedAttempt(asfsim::SimThread& t, const Body& body, uint64_t* rs,
                                   uint64_t* ws);

  asf::Machine& machine_;
  const ElisionParams params_;
  std::shared_ptr<ContentionPolicy> policy_;
  LockWord* lock_word_;        // Arena-allocated; monitored by elisions.
  asfsim::SimMutex fallback_;  // Queue discipline for real acquisitions.
  uint64_t elided_commits_ = 0;
  uint64_t real_acquisitions_ = 0;
  uint64_t elision_aborts_ = 0;
};

struct ElisionTmParams {
  ElisionParams lock;
  // Modeled instruction counts matching the other runtimes' software paths.
  uint32_t barrier_instructions = 2;
  uint32_t alloc_instructions = 12;
};

// Lock elision behind the TmRuntime ABI: one global elidable lock, every
// atomic block a critical section on it. Elided attempts count as hardware
// attempts/commits, real acquisitions as serial ones (taking the lock *is*
// serialization), so the stats-conservation invariant (attempts = commits +
// aborts) holds like for the other runtimes. Tx::UserAbort is supported only
// while elided; under the real lock there is no rollback mechanism.
class ElisionTm : public TmRuntime {
 public:
  ElisionTm(asf::Machine& machine, const ElisionTmParams& params = ElisionTmParams());
  ~ElisionTm() override;

  std::string name() const override;
  using TmRuntime::Atomic;
  asfsim::Task<void> Atomic(asfsim::SimThread& thread, uint32_t site, BodyFn body) override;
  const TxStats& stats(uint32_t thread_id) const override { return threads_[thread_id]->stats; }
  TxStats TotalStats() const override;
  void ResetStats() override;

  ElidableLock& lock() { return *lock_; }

 private:
  friend class ElisionTx;

  struct PerThread {
    explicit PerThread(asfcommon::SimArena* arena) : alloc(arena) {}
    TxStats stats;
    TxAllocator alloc;
    uint64_t refill_bytes = 0;
  };

  asf::Machine& machine_;
  const ElisionTmParams params_;
  std::unique_ptr<ElidableLock> lock_;
  std::vector<std::unique_ptr<PerThread>> threads_;
};

}  // namespace asftm

#endif  // SRC_TM_LOCK_ELISION_H_
