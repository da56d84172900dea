// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Transaction statistics collected by the TM runtimes, reproducing the
// counters behind the paper's Figures 6 (abort reasons) and 9 / Table 1
// (cycle breakdown; the cycle side lives in asfsim::Core's categories).
#ifndef SRC_TM_TM_STATS_H_
#define SRC_TM_TM_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/common/abort_cause.h"

namespace asftm {

struct TxStats {
  uint64_t tx_started = 0;      // Atomic blocks entered.
  uint64_t hw_attempts = 0;     // ASF speculative-region attempts.
  uint64_t stm_attempts = 0;    // STM attempts.
  uint64_t serial_attempts = 0; // Serial-irrevocable executions entered.
  uint64_t hw_commits = 0;      // Committed in an ASF region.
  uint64_t serial_commits = 0;  // Committed in serial-irrevocable mode.
  uint64_t stm_commits = 0;     // Committed by the STM.
  uint64_t seq_commits = 0;     // Sequential (uninstrumented) executions.
  uint64_t backoff_cycles = 0;  // Contention-management wait time.
  std::array<uint64_t, static_cast<size_t>(asfcommon::AbortCause::kNumCauses)> aborts{};

  uint64_t Commits() const { return hw_commits + serial_commits + stm_commits + seq_commits; }
  uint64_t Aborts(asfcommon::AbortCause cause) const {
    return aborts[static_cast<size_t>(cause)];
  }
  uint64_t TotalAborts() const {
    uint64_t n = 0;
    for (uint64_t v : aborts) {
      n += v;
    }
    return n;
  }
  // All execution attempts, committed or aborted. hw/stm/serial attempts are
  // counted when entered; sequential (uninstrumented) executions cannot
  // abort, so their commit count is their attempt count.
  uint64_t TotalAttempts() const {
    return hw_attempts + stm_attempts + serial_attempts + seq_commits;
  }
  // Abort rate as used in the paper's Figure 6: aborted attempts over all
  // attempts (committed + aborted). Serial attempts must be counted as
  // attempts, not commits: a serial attempt that user-aborts would otherwise
  // be missing from the denominator while its abort is in the numerator.
  double AbortRatePercent() const {
    uint64_t attempts = TotalAttempts();
    if (attempts == 0) {
      return 0.0;
    }
    return 100.0 * static_cast<double>(TotalAborts()) / static_cast<double>(attempts);
  }

  void Add(const TxStats& o);
  bool operator==(const TxStats&) const = default;
};

}  // namespace asftm

#endif  // SRC_TM_TM_STATS_H_
