// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Machine-global speculative-line directory: the O(1) answer to "who holds
// this cache line speculatively?" that a real coherence protocol gets from
// its directory/probe filters. Each line's reader-core bitmap and (at most
// one) writer core are two bytes of the line's asfmem::LineState, next to
// the coherence state the memory model keeps (src/mem/state_table.h): inside
// a Machine the directory writes the memory model's own table, so ASF's
// conflict detection reads the same per-line record as cache coherence. A
// directory built on its own keeps a private table.
//
// The Machine's requester-wins conflict resolution used to sweep every other
// core's context on every memory access (O(threads) hash probes per access);
// with this directory it is one direct-indexed read per touched line. One
// host-side short circuit leaves simulated results bit-identical: the
// active-speculator gate, a bitmap of cores with an open region. When no
// *other* core is speculating (the dominant case in low-contention phases),
// resolution is skipped without reading anything.
//
// Coherence contract: AsfContext mirrors every protected-set mutation into
// the directory at the point it happens — AddRead/AddWrite/Release while the
// region runs, and the per-line teardown on outermost commit, on abort (any
// cause: contention, capacity, displacement, fault injection), and nowhere
// else. A line's bits therefore never name an inactive core, and at most one
// core is writer of a line at a time (requester-wins aborts every other
// holder before a write proceeds). tests/conflict_directory_test.cc checks
// both invariants against a brute-force all-contexts reference scan.
#ifndef SRC_ASF_CONFLICT_DIRECTORY_H_
#define SRC_ASF_CONFLICT_DIRECTORY_H_

#include <cstdint>
#include <memory>

#include "src/common/defs.h"
#include "src/mem/state_table.h"

namespace asf {

class ConflictDirectory {
 public:
  // Host-side telemetry (zero simulated cost, never part of result digests).
  struct Stats {
    uint64_t resolutions = 0;     // Conflict-resolution invocations.
    uint64_t gate_skips = 0;      // Skipped entirely: no other speculator.
    uint64_t solo_fast_paths = 0; // Always 0; kept because perfbench reads it.
    uint64_t probes = 0;          // Line records read.
    uint64_t probe_hits = 0;      // Reads that found a speculative holder.
  };

  // Keeps the records in `lines` (a Machine passes its memory model's table)
  // or, when null, in a private table. The gate must be disabled only for the
  // fast-vs-slow equivalence gate (perf_selfcheck --gate-check), never
  // because results depend on it.
  ConflictDirectory(uint32_t num_cores, bool gate_enabled, asfmem::StateTable* lines = nullptr)
      : gate_enabled_(gate_enabled),
        own_lines_(lines == nullptr ? std::make_unique<asfmem::StateTable>() : nullptr),
        lines_(lines == nullptr ? *own_lines_ : *lines) {
    ASF_CHECK_MSG(num_cores <= asfcommon::kMaxCores, "too many cores for the conflict directory");
  }

  // --- Active-speculator tracking (AsfContext region transitions) ----------
  void OnActivate(uint32_t core) {
    ASF_CHECK((active_bitmap_ & Bit(core)) == 0);
    active_bitmap_ |= Bit(core);
  }
  void OnDeactivate(uint32_t core) {
    ASF_CHECK((active_bitmap_ & Bit(core)) != 0);
    active_bitmap_ &= ~Bit(core);
  }
  uint64_t active_bitmap() const { return active_bitmap_; }

  // --- Record maintenance (mirrored from AsfContext mutations) -------------
  void AddReader(uint32_t core, uint64_t line) {
    asfmem::LineState& s = lines_.Line(line);
    // Requester-wins resolved any remote writer before this read proceeded.
    ASF_CHECK(s.writer == 0);
    s.readers |= Bit(core);
  }

  // The line joins `core`'s write set; a read-set entry of the same core is
  // subsumed (the write monitoring covers it).
  void SetWriter(uint32_t core, uint64_t line) {
    asfmem::LineState& s = lines_.Line(line);
    // Exclusive-writer invariant: every other holder was aborted first.
    ASF_CHECK(((s.readers | s.writer) & ~Bit(core)) == 0);
    s.readers = 0;
    s.writer = Bit(core);
  }

  // RELEASE (or L1 read-bit subsumption): the core dropped read monitoring.
  void DropReader(uint32_t core, uint64_t line) { lines_.Line(line).readers &= ~Bit(core); }

  // Commit/abort teardown: the core leaves the line entirely.
  void RemoveLine(uint32_t core, uint64_t line) {
    asfmem::LineState& s = lines_.Line(line);
    s.readers &= ~Bit(core);
    s.writer &= ~Bit(core);
  }

  // --- Conflict resolution -------------------------------------------------
  // The cores an access of a line with speculative state `s` conflicts
  // with: every holder for a write-like access, only the writer for a
  // read-like one.
  static uint8_t Conflicting(const asfmem::LineState& s, bool write_like) {
    return write_like ? s.readers | s.writer : s.writer;
  }

  // Requester-wins victim set for an access of [first_line, last_line].
  // Returns the victim cores as a bitmap (decoded in ascending core order by
  // the caller, which preserves the abort order of the old all-contexts
  // sweep). Pure query plus telemetry: the caller aborts the victims, which
  // tears their records down.
  uint64_t Resolve(uint64_t first_line, uint64_t last_line, bool write_like,
                   uint32_t requester) {
    ++stats_.resolutions;
    if (gate_enabled_ && (active_bitmap_ & ~Bit(requester)) == 0) {
      ++stats_.gate_skips;
      return 0;
    }
    uint64_t victims = 0;
    for (uint64_t line = first_line; line <= last_line; ++line) {
      const asfmem::LineState& s = lines_.Line(line);
      ++stats_.probes;
      stats_.probe_hits += (s.readers | s.writer) != 0 ? 1 : 0;
      victims |= Conflicting(s, write_like);
    }
    return victims & ~Bit(requester);
  }

  // --- Introspection (conflict edges, tests) -------------------------------
  // The speculative bits of `line` (its readers and writer fields).
  const asfmem::LineState& Record(uint64_t line) const { return lines_.Line(line); }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

 private:
  static uint8_t Bit(uint32_t core) { return static_cast<uint8_t>(1u << core); }

  const bool gate_enabled_;
  uint64_t active_bitmap_ = 0;
  const std::unique_ptr<asfmem::StateTable> own_lines_;  // Null inside a Machine.
  asfmem::StateTable& lines_;
  Stats stats_;
};

}  // namespace asf

#endif  // SRC_ASF_CONFLICT_DIRECTORY_H_
