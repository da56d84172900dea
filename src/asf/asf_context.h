// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Per-core ASF speculative-region state machine (paper Sec. 2.2).
//
// Tracks region activity, flat nesting depth, the protected read and write
// sets (in the LLB, or — for the "w/ L1" variants — the read set via
// speculative-read bits in the modeled L1 cache), and performs architectural
// rollback on abort. Conflict *policy* (requester wins) is applied by the
// Machine through the shared ConflictDirectory; every protected-set mutation
// here is mirrored into that directory at the point it happens, so one read
// of a line's directory bits answers what HasRead/HasWrite of every remote
// context answered before. The per-context queries remain the reference
// semantics (tests cross-check the directory against them).
#ifndef SRC_ASF_ASF_CONTEXT_H_
#define SRC_ASF_ASF_CONTEXT_H_

#include <array>
#include <cstdint>

#include "src/common/abort_cause.h"
#include "src/common/defs.h"
#include "src/common/flat_table.h"
#include "src/asf/asf_params.h"
#include "src/asf/conflict_directory.h"
#include "src/asf/llb.h"

namespace asf {

// Per-context event counters (per core; aggregated by the harness).
struct AsfContextStats {
  uint64_t speculates = 0;  // Outermost SPECULATEs executed.
  uint64_t commits = 0;     // Outermost COMMITs.
  std::array<uint64_t, static_cast<size_t>(asfcommon::AbortCause::kNumCauses)> aborts{};

  uint64_t TotalAborts() const {
    uint64_t n = 0;
    for (uint64_t v : aborts) {
      n += v;
    }
    return n;
  }
  bool operator==(const AsfContextStats&) const = default;
};

class AsfContext {
 public:
  // `dir` is the conflict directory this context mirrors its protected sets
  // into: the Machine's, or a standalone one in unit tests.
  AsfContext(uint32_t core_id, const AsfVariant& variant, ConflictDirectory& dir)
      : core_id_(core_id), variant_(variant), dir_(dir), llb_(variant.llb_entries) {}

  uint32_t core_id() const { return core_id_; }
  const AsfVariant& variant() const { return variant_; }
  bool active() const { return depth_ > 0; }
  uint32_t depth() const { return depth_; }

  // SPECULATE. Returns false if the nesting limit (256) is exceeded — the
  // caller must abort the region.
  bool Speculate();

  // True once the region performed a speculative store (ASF1's "atomic
  // phase"; under asf1_static_set the protected set is then frozen).
  bool in_atomic_phase() const { return atomic_phase_; }

  // COMMIT. Returns true if this was the outermost commit (sets cleared,
  // speculative state became authoritative).
  bool CommitTop();

  // Architectural abort: restore LLB backups to memory, clear all tracking,
  // deactivate. Safe to call on an inactive context (no-op, not counted).
  void Abort(asfcommon::AbortCause cause);

  // --- Protected-set bookkeeping (requester side) -------------------------
  // Add `line` to the read set. Returns false on capacity overflow.
  bool AddRead(uint64_t line);
  // Add `line` to the write set (backing up the host line's pre-image).
  // Must be called before the speculative store writes host memory.
  bool AddWrite(uint64_t line);
  // RELEASE hint: drop a read-only line.
  void Release(uint64_t line);

  // --- Conflict queries (victim side) --------------------------------------
  bool HasRead(uint64_t line) const;
  bool HasWrite(uint64_t line) const { return active() && llb_.HasWrittenLine(line); }
  // A remote (or unannotated local) access conflicts if it writes a line we
  // monitor, or touches a line we speculatively wrote.
  bool ConflictsWith(uint64_t line, bool remote_is_write) const {
    if (!active()) {
      return false;
    }
    if (remote_is_write) {
      return HasRead(line) || HasWrite(line);
    }
    return HasWrite(line);
  }

  // L1 line displaced (evicted or invalidated). For the w/-L1 variants a
  // displaced read-set line loses its monitoring: returns true, meaning the
  // region must take a capacity abort. (Invalidation-by-conflict is handled
  // first by the Machine's conflict scan, so anything arriving here is a
  // displacement effect: associativity pressure or remote invalidation of a
  // colocated line.)
  bool OnL1Drop(uint64_t line);

  uint32_t read_set_lines() const {
    return variant_.l1_read_set ? static_cast<uint32_t>(l1_read_lines_.size())
                                : llb_.size() - llb_.written_count();
  }
  uint32_t write_set_lines() const { return llb_.written_count(); }

  // Visits every line this context tracks, as (line, written) pairs — the
  // LLB entries plus (for w/-L1 variants) the L1 speculative-read bits.
  // Used by the commit/abort directory teardown and the coherence tests.
  template <typename Fn>
  void ForEachTrackedLine(Fn&& fn) const {
    llb_.ForEachLine(fn);
    if (variant_.l1_read_set) {
      l1_read_lines_.ForEach([&](uint64_t line) { fn(line, false); });
    }
  }

  const AsfContextStats& stats() const { return stats_; }
  void ResetStats() { stats_ = AsfContextStats{}; }

 private:
  // Tears this context's lines out of the directory ahead of an outermost
  // commit or an abort clearing the sets.
  void TeardownDirectory();

  const uint32_t core_id_;
  const AsfVariant variant_;
  ConflictDirectory& dir_;
  Llb llb_;
  // Read-set lines tracked via L1 speculative-read bits (w/-L1 variants).
  // Probed on every remote access during the conflict scan, so it uses the
  // flat open-addressing layout.
  asfcommon::FlatSet64 l1_read_lines_{128};
  uint32_t depth_ = 0;
  bool atomic_phase_ = false;
  AsfContextStats stats_;
};

}  // namespace asf

#endif  // SRC_ASF_ASF_CONTEXT_H_
