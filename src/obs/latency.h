// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Per-transaction tail-latency accounting over the lifecycle-event stream.
//
// A "block" is one atomic section as the workload sees it: from the first
// kTxBegin on a core (with no block already open there) to the kTxCommit that
// retires it, spanning every aborted attempt, backoff window, and fallback
// transition in between. LatencyRecorder folds each completed block into
// fixed-layout exponential-bucket statistics with a per-attempt cycle
// decomposition:
//
//   total   = commit cycle - first begin cycle          (block latency)
//   wasted  = cycles inside attempts that later aborted
//   backoff = cycles inside contention-management backoff windows
//   serial  = cycles inside serial-irrevocable attempts
//   speculative work = total - wasted - backoff - serial (derived)
//
// The bucket layout is a compile-time constant (not per-instance bounds), so
// stats from independent runs merge exactly and two recorders fed the same
// event sequence agree bit for bit. That is the offline-analysis invariant:
// replaying an exported trace through ComputeLatencyFromEvents() reproduces
// the live run's percentiles exactly (tests assert this).
//
// Like every TxEventSink here, the recorder is host-side only: it never
// touches simulated state, so enabling it cannot perturb the simulation.
#ifndef SRC_OBS_LATENCY_H_
#define SRC_OBS_LATENCY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/obs/tx_event.h"

namespace asfobs {

class JsonWriter;

// Mergeable fixed-layout latency statistics for one (runtime, outcome) key or
// an aggregate. Value semantics; operator== is memberwise, which is what the
// online-vs-offline equality tests compare.
struct LatencyStats {
  // Bucket i counts blocks with total latency <= kFirstBound << i simulated
  // cycles; the final slot is the overflow bucket. 64 << 25 ≈ 2.1e9 cycles
  // comfortably covers any feasible single block.
  static constexpr uint64_t kFirstBound = 64;
  static constexpr size_t kNumBounds = 26;
  static constexpr size_t kNumBuckets = kNumBounds + 1;
  static constexpr size_t kNumModes = static_cast<size_t>(TxMode::kNumModes);

  // Bound of bucket i (UINT64_MAX for the overflow bucket).
  static uint64_t BucketBound(size_t i) {
    return i < kNumBounds ? kFirstBound << i : UINT64_MAX;
  }

  std::array<uint64_t, kNumBuckets> buckets{};
  uint64_t count = 0;  // Completed blocks.
  uint64_t sum = 0;    // Total block cycles.
  uint64_t min = 0;    // Valid only when count != 0.
  uint64_t max = 0;

  // Decomposition totals over all completed blocks (cycles).
  uint64_t wasted_cycles = 0;
  uint64_t backoff_cycles = 0;
  uint64_t serial_cycles = 0;
  uint64_t aborted_attempts = 0;
  uint64_t clean_blocks = 0;  // Committed on their first attempt.
  uint64_t retried_blocks = 0;
  std::array<uint64_t, kNumModes> commits_by_mode{};

  // Folds one completed block's total latency into the distribution; the
  // decomposition totals are accumulated directly by the recorder.
  void Observe(uint64_t total);
  void Merge(const LatencyStats& other);

  // Upper-bound estimate of the p-th percentile (0 < p <= 100): 0 when
  // empty; the bound of the bucket holding rank round(p/100 * count) clamped
  // to [1, count]; max() (the largest block actually seen) when the rank
  // lands in overflow, never the overflow bucket's UINT64_MAX sentinel.
  uint64_t Percentile(double p) const;
  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
  // Wasted cycles as a fraction of all block cycles (0 when sum == 0).
  double WastedRatio() const {
    return sum == 0 ? 0.0 : static_cast<double>(wasted_cycles) / static_cast<double>(sum);
  }

  bool operator==(const LatencyStats&) const = default;
};

// Serializes one LatencyStats as the JSON object used by the bench "latency"
// sections and harness reports (and validated by tools/json_check): counts,
// decomposition, p50/p90/p99/p999, and the sparse bucket array.
void WriteLatencyJson(JsonWriter& w, const LatencyStats& s);

// Event-stream consumer producing an aggregate LatencyStats plus one keyed
// entry per (mode, clean|retried). Chainable: every event is forwarded to
// the next sink, so recorders slot into the existing obs-session plumbing
// without displacing the user's sink.
class LatencyRecorder final : public TxEventSink {
 public:
  explicit LatencyRecorder(TxEventSink* next = nullptr) : next_(next) {}

  void SetNext(TxEventSink* next) { next_ = next; }

  void OnTxEvent(const TxEvent& ev) override;
  void OnMeasurementReset() override;

  const LatencyStats& stats() const { return stats_; }
  const LatencyStats& keyed(TxMode mode, bool retried) const {
    return keyed_[KeyIndex(mode, retried)];
  }

 private:
  static size_t KeyIndex(TxMode mode, bool retried) {
    return static_cast<size_t>(mode) * 2 + (retried ? 1 : 0);
  }

  // Open-block accounting for one core.
  struct CoreState {
    bool open = false;
    uint64_t block_start = 0;
    uint64_t attempt_start = 0;
    TxMode attempt_mode = TxMode::kNone;
    uint64_t wasted = 0;
    uint64_t backoff = 0;
    uint64_t serial = 0;
    uint64_t aborted = 0;
  };

  CoreState& StateFor(uint32_t core);

  std::vector<CoreState> cores_;
  LatencyStats stats_;
  std::array<LatencyStats, LatencyStats::kNumModes * 2> keyed_{};
  TxEventSink* next_ = nullptr;
};

// Replays an event log (e.g. the "asf" section of an exported trace) through
// a fresh recorder and returns its aggregate — bit-identical to the stats a
// live recorder produced from the same events.
LatencyStats ComputeLatencyFromEvents(const std::vector<TxEvent>& events);

// Full replay when the keyed breakdown is needed too.
void ReplayLatency(const std::vector<TxEvent>& events, LatencyRecorder* out);

}  // namespace asfobs

#endif  // SRC_OBS_LATENCY_H_
