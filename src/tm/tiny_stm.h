// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// TinySTM-style word-based software transactional memory — the paper's STM
// baseline (Sec. 5 uses TinySTM 0.9.9 in write-through mode).
//
// Algorithm (Felber, Fetzer, Riegel, PPoPP'08 — write-through variant):
//   * A global time base (version clock) and a table of ownership records
//     (orecs) hashed by address. An orec is either unlocked, carrying the
//     version of the last committed write, or locked by a writer.
//   * Reads: check the orec, read the value, re-check; if the version is
//     newer than the transaction's read timestamp, attempt a timestamp
//     extension (re-validate the whole read set at the current clock).
//   * Writes: encounter-time locking — CAS the orec to locked, log the old
//     value (undo log), write memory directly (write-through).
//   * Commit: fetch-add the clock, validate the read set if needed, release
//     orecs with the new version. Abort: restore the undo log in reverse,
//     release orecs with their pre-lock versions.
//
// All metadata operations (orec loads, CASes, clock fetch-add, read/write
// set appends) are performed through the simulated memory hierarchy, so the
// STM's cache footprint and clock-line contention — the effects behind the
// paper's Figure 9 / Table 1 overhead decomposition — are modeled rather
// than assumed.
#ifndef SRC_TM_TINY_STM_H_
#define SRC_TM_TINY_STM_H_

#include <cstdint>
#include <string>
#include <type_traits>

#include "src/asf/machine.h"
#include "src/tm/contention_policy.h"
#include "src/tm/tx_driver.h"

namespace asftm {

// TinySTM's default contention management: jittered exponential backoff
// (base 128 cycles, shift cap 10) that never gives up, since the STM has no
// fallback mode. Seeded from TinyStmParams::rng_seed.
inline constexpr ExpBackoffParams kTinyStmBackoff{
    .base_cycles = 128, .shift_cap = 10, .max_retries = UINT32_MAX, .seed_stride = 0x517B};

struct TinyStmParams {
  uint32_t orec_count_log2 = 20;  // 2^20 orecs (8 MiB), as TinySTM defaults.
  // Capacity of the arena-backed per-thread read/write logs, in entries.
  // The defaults hold the paper's workloads with wide margin. The table and
  // logs are never zero-filled on the host (SimArena::NewArray), so their
  // size costs host memory only for the pages a run touches. The litmus
  // explorer runs with smaller logs and orec table, the sizes its outcome
  // gates were recorded with.
  uint64_t max_read_set = 1ull << 18;
  uint64_t max_write_set = 1ull << 16;
  // Modeled instruction counts of the read and write barriers (pure ALU
  // work; the memory traffic is simulated explicitly). The other software
  // paths cost fixed counts (tiny_stm.cc).
  uint32_t load_instructions = 45;   // Call, hash, checks, read-set append.
  uint32_t store_instructions = 55;  // Call, hash, CAS setup, undo-log append.
  uint64_t rng_seed = 0x7A57;
  // Contention management. The STM has no fallback mode, so kSerialize
  // decisions retry immediately instead.
  ExpBackoffParams policy = kTinyStmBackoff;
};

class TinyStm : public RetryDriver {
 public:
  TinyStm(asf::Machine& machine, const TinyStmParams& params = TinyStmParams());
  ~TinyStm() override;

  std::string name() const override { return "TinySTM (write-through)"; }

 private:
  friend class StmTx;

  struct alignas(asfcommon::kCacheLineBytes) GlobalClock {
    uint64_t time = 0;
  };

  // Orec encoding: LSB set -> locked, owner id in the upper bits;
  // LSB clear -> unlocked, version in the upper bits. No default member
  // initializer, so the arena hands the table out zeroed without writing
  // it (SimArena::NewArray).
  struct Orec {
    uint64_t word;
  };
  static bool Locked(uint64_t w) { return (w & 1) != 0; }
  static uint64_t OwnerOf(uint64_t w) { return w >> 1; }
  static uint64_t VersionOf(uint64_t w) { return w >> 1; }
  static uint64_t LockWord(uint32_t tid) { return (static_cast<uint64_t>(tid) << 1) | 1; }
  static uint64_t VersionWord(uint64_t version) { return version << 1; }

  struct ReadEntry {
    Orec* orec;
    uint64_t version;
  };
  struct WriteEntry {
    uint64_t addr;
    uint32_t size;
    uint64_t old_value;
    Orec* orec;
    uint64_t prev_word;  // Orec content before we locked it (0 if we did not
                         // lock it at this entry, i.e. a re-write).
    bool locked_here;
  };
  static_assert(std::is_trivially_default_constructible_v<Orec> &&
                    std::is_trivially_default_constructible_v<ReadEntry> &&
                    std::is_trivially_default_constructible_v<WriteEntry>,
                "SimArena::NewArray must hand out the orec table and logs unwritten");

  // TxThread::read_count/write_count are the logs' lengths.
  struct PerThread : TxThread {
    using TxThread::TxThread;
    uint64_t rv = 0;  // Read timestamp.
    ReadEntry* read_set = nullptr;
    WriteEntry* write_set = nullptr;
  };

  // Hashed on the arena-relative offset, not the raw host address: the
  // arena base is only 4 MiB-aligned, so address bits at and above bit 22
  // vary with where the mapping lands, and a table of 2^20 orecs consumes
  // bits 3..22 — hashing raw addresses would make the collision pattern
  // (and therefore conflict behavior) depend on mmap placement.
  Orec* OrecFor(uint64_t addr) {
    return &orecs_[((addr - arena_base_) >> 3) & (orec_count_ - 1)];
  }

  asfsim::Task<void> Attempt(asfsim::SimThread& t, TxThread& pt, const BodyFn& body) override;
  // No fallback mode exists, so a kSerialize decision degenerates to an
  // immediate retry; the STM's word-granular conflict detection plus backoff
  // is its whole forward-progress story.
  asfsim::Task<bool> Fallback(asfsim::SimThread& t, TxThread& pt, BodyFn& body,
                              uint32_t retry) override;
  asfsim::Task<void> Commit(asfsim::SimThread& t, PerThread& pt);
  // Validates the read set at the current clock; extends rv on success.
  // On failure performs rollback and self-aborts (never resumes).
  asfsim::Task<void> ExtendOrAbort(asfsim::SimThread& t, PerThread& pt);
  // Returns whether every read-set entry is still valid.
  asfsim::Task<bool> Validate(asfsim::SimThread& t, PerThread& pt);
  // Undoes all writes, releases orecs, self-aborts (never resumes).
  asfsim::Task<void> RollbackAndAbort(asfsim::SimThread& t, PerThread& pt);
  asfsim::Task<void> RollbackWith(asfsim::SimThread& t, PerThread& pt,
                                  asfcommon::AbortCause cause);

  const TinyStmParams params_;
  GlobalClock* clock_;    // Arena-allocated.
  Orec* orecs_;           // Arena-allocated table of orec_count_ entries.
  uint64_t orec_count_;
  uint64_t arena_base_;   // Orec hashing is arena-relative (see OrecFor).
};

}  // namespace asftm

#endif  // SRC_TM_TINY_STM_H_
