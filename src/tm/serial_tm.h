// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Reference runtimes:
//
//  * SequentialTm — uninstrumented execution, no synchronization. This is
//    the paper's "sequential" baseline (the horizontal bars in Figure 4 and
//    the "Sequential" series in Figure 3); meaningful for one thread only.
//  * GlobalLockTm — every atomic block takes one global lock. Not evaluated
//    in the paper's figures, but the natural lock-based reference point the
//    introduction argues against; used by the ablation bench and examples.
#ifndef SRC_TM_SERIAL_TM_H_
#define SRC_TM_SERIAL_TM_H_

#include <string>

#include "src/asf/machine.h"
#include "src/sim/sync.h"
#include "src/tm/tx_driver.h"

namespace asftm {

class SequentialTm : public RuntimeBase {
 public:
  explicit SequentialTm(asf::Machine& machine);
  ~SequentialTm() override;

  std::string name() const override { return "Sequential"; }
  using TmRuntime::Atomic;
  asfsim::Task<void> Atomic(asfsim::SimThread& thread, uint32_t site, BodyFn body) override;
};

class GlobalLockTm : public RuntimeBase {
 public:
  explicit GlobalLockTm(asf::Machine& machine);
  ~GlobalLockTm() override;

  std::string name() const override { return "Global lock"; }
  using TmRuntime::Atomic;
  asfsim::Task<void> Atomic(asfsim::SimThread& thread, uint32_t site, BodyFn body) override;

 private:
  struct alignas(asfcommon::kCacheLineBytes) LockWord {
    uint64_t word = 0;
  };

  LockWord* lock_word_;
  asfsim::SimMutex mutex_;
};

}  // namespace asftm

#endif  // SRC_TM_SERIAL_TM_H_
