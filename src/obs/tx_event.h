// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Transaction lifecycle events — the observability layer's view of the TM
// runtimes. The runtimes (asf_tm, phased_tm, tiny_stm, lock_elision) emit one
// structured event per attempt boundary, fallback transition, and backoff
// window through a sink installed on the Machine. Emission is host-side and
// costs zero simulated cycles; with no sink installed the only cost is one
// pointer test per would-be event.
//
// This header is dependency-light on purpose (asf_common only): the machine
// layer stores a sink pointer without pulling in the rest of src/obs/.
#ifndef SRC_OBS_TX_EVENT_H_
#define SRC_OBS_TX_EVENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/abort_cause.h"

namespace asfobs {

enum class TxEventKind : uint8_t {
  kTxBegin = 0,          // One transaction attempt starts.
  kTxCommit,             // The attempt committed (mode says how).
  kTxAbort,              // The attempt aborted (cause says why).
  kFallbackTransition,   // Execution strategy changed (e.g. hw -> serial).
  kBackoffStart,         // Contention-management backoff begins.
  kBackoffEnd,           // Backoff ended; arg0 = cycles waited.
  kFaultInjected,        // src/fault injected a fault here (cause says what;
                         // arg0 = 1 if it aborted a region, 0 if it only
                         // charged service latency; arg1 = extra cycles).
  kConflictEdge,         // Conflict resolution chose a victim: one event per
                         // (contended line, victim). `core`/`attempt` name the
                         // victim; the aggressor and line travel in arg0/arg1
                         // (see TxEvent payload docs). Emitted by the machine
                         // before the victim's kTxAbort.
  kNumKinds,
};

const char* TxEventKindName(TxEventKind k);

// Execution mode of an attempt (TxBegin/TxCommit/TxAbort) or the destination
// of a FallbackTransition (whose source travels in arg0).
enum class TxMode : uint8_t {
  kNone = 0,
  kHardware,   // ASF speculative region.
  kSerial,     // Serial-irrevocable mode.
  kStm,        // Software TM attempt.
  kElision,    // Speculative lock elision.
  kLock,       // Real lock acquisition (elision fallback).
  kNumModes,
};

const char* TxModeName(TxMode m);

struct TxEvent {
  uint64_t cycle = 0;  // Core clock at emission.
  uint32_t core = 0;
  TxEventKind kind = TxEventKind::kTxBegin;
  TxMode mode = TxMode::kNone;
  // TxAbort: why the attempt died.
  asfcommon::AbortCause cause = asfcommon::AbortCause::kNone;
  // Core-local attempt-accounting id (asfsim::Core::attempt_seq()); 0 when
  // the attempt is not attempt-accounted (serial mode, lock elision). Links
  // lifecycle events to the cycle spans charged into the same attempt, which
  // is what lets offline analysis reclassify aborted work as waste.
  uint64_t attempt = 0;
  // Attempt ordinal within the atomic block: 0 for the first try, so a
  // TxCommit's `retry` equals the aborted attempts that preceded it.
  uint32_t retry = 0;
  // Kind-specific payload:
  //   TxCommit:            arg0 = read-set size, arg1 = write-set size
  //                        (cache lines for hardware modes, log entries for
  //                        the STM).
  //   TxAbort:             arg0 = read-set size, arg1 = write-set size at
  //                        death when known (0 otherwise).
  //   kFallbackTransition: arg0 = source TxMode.
  //   kBackoffEnd:         arg0 = cycles waited.
  //   kConflictEdge:       arg0 = cache-line number (address >> 6) of the
  //                        contended line, arena-relative when the line lies
  //                        in the machine's SimArena (Machine::ObsLine) so
  //                        heatmaps are reproducible across host runs;
  //                        arg1 packs the edge descriptor:
  //                        bits [7:0] aggressor core, bit 8 set when the
  //                        victim held the line as a writer (clear: reader),
  //                        bit 9 set when the aggressor access was
  //                        write-like. cause = kContention, mode = kHardware,
  //                        retry = 0.
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};

// kConflictEdge arg1 descriptor: bits [7:0] aggressor core, bit 8 victim held
// the line as writer, bit 9 aggressor access was write-like.
constexpr uint64_t PackConflictEdge(uint32_t aggressor_core, bool victim_was_writer,
                                    bool aggressor_write_like) {
  return (uint64_t{aggressor_core} & 0xffu) | (victim_was_writer ? 0x100ull : 0ull) |
         (aggressor_write_like ? 0x200ull : 0ull);
}
constexpr uint32_t ConflictEdgeAggressor(uint64_t arg1) {
  return static_cast<uint32_t>(arg1 & 0xffu);
}
constexpr bool ConflictEdgeVictimWasWriter(uint64_t arg1) { return (arg1 & 0x100ull) != 0; }
constexpr bool ConflictEdgeWriteLike(uint64_t arg1) { return (arg1 & 0x200ull) != 0; }

// Sink interface. Implementations must not touch simulated state: they are
// host-side observers ("without any interference with the benchmark's
// execution").
class TxEventSink {
 public:
  virtual ~TxEventSink() = default;
  virtual void OnTxEvent(const TxEvent& ev) = 0;
  // Invoked by harnesses at the measurement barrier, atomically with the
  // statistics reset: drop everything recorded during warm-up.
  virtual void OnMeasurementReset() {}
};

// The event-log sink: appends every event to a vector, cleared at the
// measurement barrier. Offline analysis (AnalyzeTrace, the latency and
// heatmap replays) and trace export read its events().
class TxEventLog final : public TxEventSink {
 public:
  explicit TxEventLog(size_t reserve = 1 << 12) { events_.reserve(reserve); }

  void OnTxEvent(const TxEvent& ev) override { events_.push_back(ev); }
  void OnMeasurementReset() override { events_.clear(); }

  const std::vector<TxEvent>& events() const { return events_; }

 private:
  std::vector<TxEvent> events_;
};

}  // namespace asfobs

#endif  // SRC_OBS_TX_EVENT_H_
