// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// The DTMC TM-instrumentation pass (paper Sec. 3.1) on the mini-IR:
//
//   1. Transaction statements (tx.begin / tx.end) become calls to
//      _ITM_beginTransaction / _ITM_commitTransaction (the Intel TM ABI).
//   2. Shared loads and stores inside a transaction are rewritten to
//      _ITM_R / _ITM_W calls; stack accesses stay plain (selective
//      annotation — "accesses to a thread's stack are not transactional").
//   3. Function calls inside transactions are redirected to transactional
//      clones (the `_tx` suffix), generated transitively on demand.
//   4. Optionally, the TM library is inlined (the paper's static linking +
//      link-time optimization): _ITM_R/_ITM_W collapse into LOCK MOVs and
//      begin/commit into SPECULATE/COMMIT plus their software preludes.
//
// InstrumentationCost() measures per-barrier instruction counts of the two
// configurations. The inlined count is asftm::HwCosts::barrier_instructions
// (src/tm/tx_driver.h), the per-access cost of every hardware runtime;
// dtmc_test asserts the two are equal. The library-call count is not yet
// tied to ablation 3's dynamically linked barrier cost.
#ifndef SRC_DTMC_INSTRUMENT_PASS_H_
#define SRC_DTMC_INSTRUMENT_PASS_H_

#include "src/dtmc/ir.h"

namespace dtmc {

struct LoweringOptions {
  // Static linking + LTO: inline the TM library into the application.
  bool inline_tm = false;
};

// Runs the instrumentation pass over `in`; returns the transformed module
// (transactional clones added, atomic regions lowered).
Module InstrumentTm(const Module& in, const LoweringOptions& options);

struct BarrierCost {
  // Instructions per transactional load/store barrier after lowering.
  uint32_t per_load = 0;
  uint32_t per_store = 0;
  // Instructions added around transaction begin/commit.
  uint32_t begin = 0;
  uint32_t commit = 0;
};

// Estimates per-barrier instruction counts for the given lowering (counting
// IR instructions of the lowered form plus the modeled out-of-line call cost
// when the TM library is not inlined).
BarrierCost InstrumentationCost(const LoweringOptions& options);

}  // namespace dtmc

#endif  // SRC_DTMC_INSTRUMENT_PASS_H_
