// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// The machinery the TM runtimes share: per-thread state and statistics, the
// ASF hardware attempt, and the one per-block retry driver.
//
// A runtime supplies its attempt and its fallback; RetryDriver::Atomic owns
// everything around them, for every atomic block:
//   * attempt accounting, TxStats, the allocator's attempt hooks and the
//     lifecycle events;
//   * the mechanism causes: kRestartSerial (a fallback raced past the gate:
//     dispatch again), kUserAbort (language-level cancel: the block is
//     done), kMallocRefill (refill the allocator nonspeculatively, retry);
//   * every other cause goes to the ContentionPolicy: the driver sleeps a
//     kBackoffRetry's wait and runs the runtime's fallback on kSerialize.
//
// The default attempt is the ASF hardware attempt that ASF-TM, PhasedTM's
// hardware phase and lock elision share: SPECULATE, monitor one gate word
// that must read 0 (ASF-TM's serial lock, PhasedTM's phase word, the elided
// lock's word), run the body through the hardware Tx handle, COMMIT. A
// fallback writes the gate word, which aborts every attempt in flight.
// TinySTM supplies its own attempt and has no gate.
#ifndef SRC_TM_TX_DRIVER_H_
#define SRC_TM_TX_DRIVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/asf/machine.h"
#include "src/obs/tx_event.h"
#include "src/tm/contention_policy.h"
#include "src/tm/tm_api.h"
#include "src/tm/tx_allocator.h"

namespace asftm {

struct SerialUndoEntry {
  uint64_t addr;
  uint32_t size;
  uint64_t old_value;
};

// Per-thread runtime state. TinySTM extends it with its logs.
struct TxThread {
  explicit TxThread(asfcommon::SimArena* arena) : alloc(arena) {}
  virtual ~TxThread() = default;
  TxThread(const TxThread&) = delete;
  TxThread& operator=(const TxThread&) = delete;

  TxStats stats;
  TxAllocator alloc;
  uint64_t refill_bytes = 0;  // Allocation size that triggered kMallocRefill.
  // Read/write-set sizes of the current attempt, reported in its lifecycle
  // events: a hardware attempt captures its protected lines just before
  // COMMIT (the commit clears the ASF context); TinySTM counts log entries.
  uint64_t read_count = 0;
  uint64_t write_count = 0;
  // Undo log of serial-irrevocable and real-lock execution. Nothing runs
  // concurrently, but a language-level cancel (Tx::UserAbort) must still be
  // able to roll the block back (GCC libitm's "serial" vs
  // "serial-irrevocable" distinction).
  std::vector<SerialUndoEntry> serial_undo;
};

// Modeled instruction counts of the hardware attempt's software paths (the
// ABI glue around the raw ASF instructions; Table 1 attributes begin and
// commit to "Tx start/commit"). The defaults are ASF-TM's, reflecting the
// statically-linked, link-time-optimized configuration the paper evaluates.
struct HwCosts {
  uint32_t begin_instructions = 35;   // Checkpoint registers, save stack mark.
  uint32_t commit_instructions = 12;  // Mode bookkeeping around COMMIT.
  uint32_t barrier_instructions = 2;  // Per-access ABI dispatch (inlined).
  uint32_t alloc_instructions = 12;   // Bump-allocator fast path.
};

// Owns one TxThread per core and implements the statistics over them.
class RuntimeBase : public TmRuntime {
 public:
  const TxStats& stats(uint32_t thread_id) const override { return threads_[thread_id]->stats; }
  TxStats TotalStats() const override;
  void ResetStats() override;

 protected:
  explicit RuntimeBase(asf::Machine& machine) : machine_(machine) {}

  // Creates the per-thread state of every core.
  template <typename T = TxThread>
  void AddThreads() {
    for (uint32_t i = 0; i < machine_.scheduler().num_cores(); ++i) {
      threads_.push_back(std::make_unique<T>(&machine_.arena()));
    }
  }
  // Gives every thread's allocator its first chunk.
  void WarmAllocators();

  asf::Machine& machine_;
  std::vector<std::unique_ptr<TxThread>> threads_;
};

// The per-block retry driver (see the file comment). Runtimes derive from it
// and set the gate, the costs and the poll interval in their constructors.
class RetryDriver : public RuntimeBase {
 public:
  asfsim::Task<void> Atomic(asfsim::SimThread& thread, BodyFn body) override;

 protected:
  // `mode` tags the attempts' lifecycle events; the contention policy runs
  // `policy` seeded with the runtime's `seed`.
  RetryDriver(asf::Machine& machine, asfobs::TxMode mode, const ExpBackoffParams& policy,
              uint64_t seed);

  // One attempt of the block, run in an abortable scope. The default is the
  // hardware attempt; TinySTM overrides it.
  virtual asfsim::Task<void> Attempt(asfsim::SimThread& t, TxThread& pt, const BodyFn& body);

  // Runs the block on the runtime's fallback after the policy's kSerialize;
  // `retry` counts the block's aborted attempts. Returns false when the block
  // must be dispatched again (PhasedTM's phase switch, TinySTM's retry).
  virtual asfsim::Task<bool> Fallback(asfsim::SimThread& t, TxThread& pt, BodyFn& body,
                                      uint32_t retry) = 0;

  // The gate word read nonzero before an attempt. Returns true when the block
  // ran to completion elsewhere (PhasedTM's software phase); the default
  // waits gate_poll_cycles_ for the gate holder and dispatches again.
  virtual asfsim::Task<bool> GateClosed(asfsim::SimThread& t, TxThread& pt, BodyFn& body);

  // Runs `body` with the serial (plain-access, undo-logged) Tx handle; await
  // it through RunAbortable so Tx::UserAbort can unwind it.
  asfsim::Task<void> SerialBody(asfsim::SimThread& t, TxThread& pt, const BodyFn& body);

  const asfobs::TxMode mode_;
  ContentionPolicy policy_;
  HwCosts costs_;
  uint64_t* gate_ = nullptr;         // Arena-allocated; null = no gate (TinySTM).
  uint64_t gate_poll_cycles_ = 128;  // Wait between gate checks.
  bool always_fallback_ = false;     // Never speculate (the plain-lock baseline).
};

}  // namespace asftm

#endif  // SRC_TM_TX_DRIVER_H_
