// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// PhasedTM-style hybrid runtime — the "more elaborate fallback mechanism"
// the paper sketches as an alternative to ASF-TM's serial-irrevocable mode
// (Sec. 3.2, citing Lev/Moir/Nussbaum's PhTM): instead of serializing
// capacity-challenged transactions, the whole system switches between a
// HARDWARE phase (every transaction runs as an ASF speculative region) and a
// SOFTWARE phase (every transaction runs on the STM), so oversized
// transactions retain concurrency among themselves.
//
// Mechanism: hardware transactions LOCK-MOV-monitor the global phase word,
// so the store that flips the phase aborts all of them instantly. Software
// transactions register in an active counter; the system returns to the
// hardware phase once the software quota is consumed and no software
// transaction is in flight.
#ifndef SRC_TM_PHASED_TM_H_
#define SRC_TM_PHASED_TM_H_

#include <memory>
#include <string>

#include "src/tm/contention_policy.h"
#include "src/tm/tiny_stm.h"
#include "src/tm/tx_driver.h"

namespace asftm {

// PhasedTM's default contention management for the hardware phase:
// ASF-TM's policy (kSerialize = switch to the software phase, which is what
// capacity overflows need) on its own per-thread jitter streams, seeded from
// PhasedTmParams::rng_seed.
inline constexpr ExpBackoffParams kPhasedTmBackoff{.seed_stride = 0xABCD};

struct PhasedTmParams {
  uint32_t begin_instructions = HwCosts().begin_instructions;
  uint32_t commit_instructions = HwCosts().commit_instructions;
  uint32_t barrier_instructions = HwCosts().barrier_instructions;
  uint32_t alloc_instructions = HwCosts().alloc_instructions;
  // Software-phase commits before attempting to switch back to hardware.
  uint32_t software_quota = 16;
  uint64_t rng_seed = 0x9A5ED;
  // Sizing of the software-phase TinySTM (orec table and per-thread logs).
  // The defaults match TinyStmParams; the litmus explorer shrinks them to
  // fit one machine per enumerated interleaving.
  uint32_t stm_orec_count_log2 = TinyStmParams().orec_count_log2;
  uint64_t stm_max_read_set = TinyStmParams().max_read_set;
  uint64_t stm_max_write_set = TinyStmParams().max_write_set;
  // Contention management for the hardware phase; kSerialize decisions flip
  // the system into the software phase.
  ExpBackoffParams policy = kPhasedTmBackoff;
};

class PhasedTm : public RetryDriver {
 public:
  PhasedTm(asf::Machine& machine, const PhasedTmParams& params = PhasedTmParams());
  ~PhasedTm() override;

  std::string name() const override;
  // The hardware phase's statistics plus the software phase's attempts,
  // aborts and backoff (its commits are counted as stm_commits already).
  TxStats TotalStats() const override;
  void ResetStats() override;

  // Phase-transition counters (diagnostics / tests).
  uint64_t switches_to_software() const { return to_software_; }
  uint64_t switches_to_hardware() const { return to_hardware_; }

 private:
  static constexpr uint64_t kHardware = 0;
  static constexpr uint64_t kSoftware = 1;
  static constexpr uint64_t kDraining = 2;  // Software phase emptying out.

  struct alignas(asfcommon::kCacheLineBytes) PhaseState {
    uint64_t phase = kHardware;
    uint64_t pad[7];
    uint64_t active_software = 0;  // In-flight software transactions.
    uint64_t pad2[7];
    uint64_t software_budget = 0;  // Remaining commits before switching back.
  };

  // The PhTM move: a kSerialize decision (capacity, or a spent contention
  // budget) flips the whole system into the software phase instead of
  // serializing, so capacity-challenged transactions retain concurrency
  // among themselves. The block then dispatches again.
  asfsim::Task<bool> Fallback(asfsim::SimThread& t, TxThread& pt, BodyFn& body,
                              uint32_t retry) override;
  // The phase word is not kHardware: run the block in the software phase.
  asfsim::Task<bool> GateClosed(asfsim::SimThread& t, TxThread& pt, BodyFn& body) override;

  const uint32_t software_quota_;
  PhaseState* phase_;
  std::unique_ptr<TinyStm> stm_;  // Executes software-phase transactions.
  uint64_t to_software_ = 0;
  uint64_t to_hardware_ = 0;
};

}  // namespace asftm

#endif  // SRC_TM_PHASED_TM_H_
