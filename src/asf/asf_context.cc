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
  depth_ = 0;
  atomic_phase_ = false;
}

void AsfContext::TeardownDirectory() {
  // RemoveLine is idempotent, so a line listed twice, or both listed and in
  // the LLB, is harmless.
  llb_.ForEachLine([&](uint64_t line, bool /*written*/) { dir_.RemoveLine(core_id_, line); });
  for (uint64_t line : l1_read_lines_) {
    dir_.RemoveLine(core_id_, line);
  }
  l1_read_lines_.clear();
  l1_read_count_ = 0;
  dir_.OnDeactivate(core_id_);
}

bool AsfContext::AddRead(uint64_t line) {
  ASF_CHECK(active());
  if (HasRead(line)) {
    return true;  // Already monitored, as a read or as a write.
  }
  if (variant_.asf1_static_set && atomic_phase_) {
    return false;  // ASF1: no set expansion inside the atomic phase.
  }
  if (variant_.l1_read_set) {
    l1_read_lines_.push_back(line);
    ++l1_read_count_;
  } else if (!llb_.AddRead(line)) {
    return false;
  }
  dir_.AddReader(core_id_, line);
  return true;  // w/-L1: capacity effects arrive via OnL1Drop displacement.
}

bool AsfContext::AddWrite(uint64_t line) {
  ASF_CHECK(active());
  const asfmem::LineState& s = dir_.Record(line);
  if ((s.writer & bit_) != 0) {
    return true;
  }
  const bool was_read = (s.readers & bit_) != 0;
  if (variant_.asf1_static_set && atomic_phase_ && !was_read) {
    return false;  // ASF1: new lines cannot join the set mid-atomic-phase.
  }
  atomic_phase_ = true;
  if (!llb_.AddWrite(line)) {
    return false;
  }
  // w/-L1: the write set lives in the LLB, which subsumes the line's read-bit
  // tracking (keeping it would turn a later benign L1 displacement into a
  // spurious capacity abort). SetWriter clears the reader bit.
  if (variant_.l1_read_set && was_read) {
    --l1_read_count_;
  }
  dir_.SetWriter(core_id_, line);
  return true;
}

void AsfContext::Release(uint64_t line) {
  // Only a read-only line carries the reader bit; a written one is left
  // alone (RELEASE cannot cancel a speculative store).
  if ((dir_.Record(line).readers & bit_) == 0) {
    return;
  }
  if (variant_.l1_read_set) {
    --l1_read_count_;
  } else {
    llb_.Release(line);
  }
  dir_.DropReader(core_id_, line);
}

}  // namespace asf
