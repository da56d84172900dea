// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/asf/asf_context.h"

namespace asf {

using asfcommon::AbortCause;

bool AsfContext::Speculate() {
  if (depth_ == 0) {
    ++stats_.speculates;
    ASF_CHECK(llb_.size() == 0);
    ASF_CHECK(l1_read_lines_.empty());
  }
  if (depth_ >= kMaxNestingDepth) {
    return false;
  }
  ++depth_;
  if (depth_ == 1) {
    dir_.OnActivate(core_id_);
  }
  return true;
}

bool AsfContext::CommitTop() {
  ASF_CHECK_MSG(depth_ > 0, "COMMIT outside a speculative region");
  --depth_;
  if (depth_ > 0) {
    return false;  // Flat nesting: inner commits are no-ops.
  }
  ++stats_.commits;
  TeardownDirectory();
  llb_.Clear();
  l1_read_lines_.Clear();
  atomic_phase_ = false;
  return true;
}

void AsfContext::Abort(AbortCause cause) {
  if (depth_ == 0) {
    return;
  }
  ++stats_.aborts[static_cast<size_t>(cause)];
  TeardownDirectory();
  llb_.RestoreAll();
  l1_read_lines_.Clear();
  depth_ = 0;
  atomic_phase_ = false;
}

void AsfContext::TeardownDirectory() {
  // ForEachTrackedLine would double-visit nothing here (LLB and L1 read bits
  // are disjoint by construction), but RemoveLine is idempotent regardless.
  ForEachTrackedLine([&](uint64_t line, bool /*written*/) { dir_.RemoveLine(core_id_, line); });
  dir_.OnDeactivate(core_id_);
}

bool AsfContext::AddRead(uint64_t line) {
  ASF_CHECK(active());
  if (variant_.asf1_static_set && atomic_phase_ && !HasRead(line) && !HasWrite(line)) {
    return false;  // ASF1: no set expansion inside the atomic phase.
  }
  if (variant_.l1_read_set) {
    // The L1 tracks reads; a line already in the write set needs no extra
    // tracking (the LLB monitors it).
    if (llb_.HasWrittenLine(line)) {
      return true;
    }
    l1_read_lines_.Insert(line);
    dir_.AddReader(core_id_, line);
    return true;  // Capacity effects arrive via OnL1Drop displacement.
  }
  bool written;
  if (!llb_.AddRead(line, &written)) {
    return false;
  }
  // A line we already wrote is monitored through the writer record; adding a
  // reader bit would break the directory's exclusive-writer invariant.
  if (!written) {
    dir_.AddReader(core_id_, line);
  }
  return true;
}

bool AsfContext::AddWrite(uint64_t line) {
  ASF_CHECK(active());
  if (variant_.asf1_static_set && atomic_phase_ && !HasRead(line) && !HasWrite(line)) {
    return false;  // ASF1: new lines cannot join the set mid-atomic-phase.
  }
  atomic_phase_ = true;
  if (variant_.l1_read_set) {
    // Write set lives in the LLB; drop any read-bit tracking for the line
    // (the LLB entry subsumes it, and keeping it would turn a later benign
    // L1 displacement into a spurious capacity abort).
    if (!llb_.AddWrite(line)) {
      return false;
    }
    l1_read_lines_.Erase(line);
  } else if (!llb_.AddWrite(line)) {
    return false;
  }
  dir_.SetWriter(core_id_, line);
  return true;
}

void AsfContext::Release(uint64_t line) {
  if (!active()) {
    return;
  }
  bool dropped;
  if (variant_.l1_read_set) {
    dropped = l1_read_lines_.Erase(line);
  } else {
    dropped = llb_.Release(line);
  }
  if (dropped) {
    dir_.DropReader(core_id_, line);
  }
}

bool AsfContext::HasRead(uint64_t line) const {
  if (!active()) {
    return false;
  }
  if (variant_.l1_read_set) {
    return l1_read_lines_.Contains(line) || llb_.HasLine(line);
  }
  return llb_.HasLine(line);
}

bool AsfContext::OnL1Drop(uint64_t line) {
  if (!active() || !variant_.l1_read_set) {
    return false;
  }
  return l1_read_lines_.Contains(line);
}

}  // namespace asf
