// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Shared lifecycle-event emission helper for the TM runtimes. Emission is a
// host-side observer call stamped with the issuing core's current clock; with
// no sink installed on the machine the cost is a single pointer test.
#ifndef SRC_TM_TX_OBSERVE_H_
#define SRC_TM_TX_OBSERVE_H_

#include <cstdint>

#include "src/asf/machine.h"
#include "src/obs/tx_event.h"
#include "src/sim/scheduler.h"

namespace asftm {

inline void EmitTxEvent(asf::Machine& machine, asfsim::SimThread& t, asfobs::TxEventKind kind,
                        asfobs::TxMode mode, asfcommon::AbortCause cause, uint64_t attempt,
                        uint32_t retry, uint64_t arg0 = 0, uint64_t arg1 = 0) {
  asfobs::TxEventSink* sink = machine.tx_sink();
  if (sink == nullptr) {
    return;
  }
  asfobs::TxEvent ev;
  ev.cycle = t.core().clock();
  ev.core = t.id();
  ev.kind = kind;
  ev.mode = mode;
  ev.cause = cause;
  ev.attempt = attempt;
  ev.retry = retry;
  ev.arg0 = arg0;
  ev.arg1 = arg1;
  sink->OnTxEvent(ev);
}

}  // namespace asftm

#endif  // SRC_TM_TX_OBSERVE_H_
