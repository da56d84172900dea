// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// ASF-TM: the paper's TM runtime implementing the TM ABI on ASF (Sec. 3.2).
//
// Execution model per atomic block:
//   1. "Transaction begin" combines a software register checkpoint (setjmp
//      analog; ASF only restores rIP/rSP) with SPECULATE, then immediately
//      LOCK-MOV-reads the serial-mode lock word so that any thread entering
//      serial-irrevocable mode aborts every in-flight hardware transaction.
//   2. The body runs with LOCK MOV-annotated accesses for shared data only
//      (selective annotation: stack and runtime-local data stay plain).
//   3. COMMIT publishes; aborts resume after SPECULATE, which the retry
//      driver (tx_driver.h) surfaces as the abort cause.
//   4. Fallback policy (paper Sec. 3.2, kAsfTmBackoff): capacity overflows
//      switch the transaction to serial-irrevocable mode, as does exceeding
//      the contention retry budget; contention uses exponential backoff;
//      page faults and interrupts retry in hardware (the fault has been
//      serviced / the tick has passed); allocator-refill aborts refill
//      nonspeculatively and retry.
//
// Serial-irrevocable mode takes a global lock word that every hardware
// transaction monitors; waiting transactions spin (with sleep) outside any
// speculative region.
#ifndef SRC_TM_ASF_TM_H_
#define SRC_TM_ASF_TM_H_

#include <string>

#include "src/asf/machine.h"
#include "src/sim/sync.h"
#include "src/tm/contention_policy.h"
#include "src/tm/tx_driver.h"

namespace asftm {

// ASF-TM's default contention management, the paper's Sec. 3.2 policy: the
// ExpBackoffParams defaults (base 64 cycles, shift cap 8, 8 counted
// retries, capacity straight to serial-irrevocable mode), seeded from
// AsfTmParams::rng_seed.
inline constexpr ExpBackoffParams kAsfTmBackoff{};

struct AsfTmParams {
  // Per-access ABI dispatch cost; the other software paths cost HwCosts'
  // counts.
  uint32_t barrier_instructions = HwCosts().barrier_instructions;
  uint64_t rng_seed = 0x5EED;
  // Contention management; kSerialize decisions enter serial-irrevocable
  // mode.
  ExpBackoffParams policy = kAsfTmBackoff;
};

class AsfTm : public RetryDriver {
 public:
  AsfTm(asf::Machine& machine, const AsfTmParams& params = AsfTmParams());
  ~AsfTm() override;

  std::string name() const override;

 private:
  struct alignas(asfcommon::kCacheLineBytes) SerialLock {
    uint64_t word = 0;
  };

  // Serial-irrevocable mode: takes the lock word every hardware attempt
  // monitors and runs the block alone.
  asfsim::Task<bool> Fallback(asfsim::SimThread& t, TxThread& pt, BodyFn& body,
                              uint32_t retry) override;

  SerialLock* serial_lock_;  // Arena-allocated (deterministic address).
  asfsim::SimMutex serial_mutex_;
};

}  // namespace asftm

#endif  // SRC_TM_ASF_TM_H_
