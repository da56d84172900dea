// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/mem/memory_system.h"

#include <atomic>

namespace asfmem {

using asfcommon::kCacheLineBytes;
using asfcommon::kPageBytes;
using asfcommon::LineOf;
using asfcommon::PageOf;

namespace {
// Test-only global (read once per MemorySystem construction, so the hot path
// branches on a plain const bool). Default on.
std::atomic<bool> g_mem_fast_path{true};
}  // namespace

void MemorySystem::SetFastPathForTesting(bool enabled) {
  g_mem_fast_path.store(enabled, std::memory_order_relaxed);
}

void MemParams::Validate() const {
  ASF_CHECK_MSG(l1_latency >= 1 && l2_latency >= 1 && l3_latency >= 1 && ram_latency >= 1,
                "cache/RAM latencies must be nonzero (global event ordering assumes "
                "accesses take time)");
  ASF_CHECK_MSG(remote_latency >= 1 && store_hit_latency >= 1 && upgrade_latency >= 1,
                "coherence latencies must be nonzero");
  ASF_CHECK_MSG(l1_latency <= l2_latency && l2_latency <= l3_latency &&
                    l3_latency <= ram_latency,
                "hierarchy latencies must be monotone (L1 <= L2 <= L3 <= RAM)");
  ASF_CHECK_MSG(page_fault_cycles >= 1, "page_fault_cycles must be nonzero");
}

MemorySystem::MemorySystem(uint32_t num_cores, const MemParams& params)
    : params_(params),
      fast_path_enabled_(g_mem_fast_path.load(std::memory_order_relaxed)),
      l3_(params.l3) {
  ASF_CHECK(num_cores >= 1 && num_cores <= 32);
  params.Validate();
  for (uint32_t i = 0; i < num_cores; ++i) {
    l1s_.push_back(std::make_unique<Cache>(params.l1));
    l2s_.push_back(std::make_unique<Cache>(params.l2));
    tlbs_.push_back(std::make_unique<Tlb>(params.tlb));
  }
  stats_.resize(num_cores);
  memos_.resize(num_cores);
  fast_stats_.resize(num_cores);
}

MemFastPathStats MemorySystem::fast_path_stats() const {
  MemFastPathStats total;
  for (const MemFastPathStats& fp : fast_stats_) {
    total.accesses += fp.accesses;
    total.line_hits += fp.line_hits;
    total.page_hits += fp.page_hits;
  }
  return total;
}

MemResult MemorySystem::Access(uint32_t core, uint64_t addr, uint32_t size, bool is_write) {
  ASF_CHECK(core < num_cores());
  ASF_CHECK(size >= 1);
  MemResult result;
  MemStats& st = stats_[core];
  if (is_write) {
    ++st.stores;
  } else {
    ++st.loads;
  }
  MemFastPathStats& fp = fast_stats_[core];
  ++fp.accesses;

  const uint64_t first_page = PageOf(addr);
  const uint64_t last_page = PageOf(addr + size - 1);
  const uint64_t first_line = LineOf(addr);
  const uint64_t last_line = LineOf(addr + size - 1);

  CoreMemo& memo = memos_[core];
  // Full fast path: the core re-touches the line it touched last (the intset
  // traversals issue key+next loads from one node line back-to-back). The
  // memo guarantees the slow path would be: 0-cycle MRU TLB hit, no fault,
  // L1 MRU hit (load) or owned store-buffer hit (store) — all of whose state
  // updates are idempotent — so we charge the identical latency and skip the
  // TLB lookup, directory read and cache LRU walks.
  if (fast_path_enabled_ && first_line == last_line && first_page == last_page &&
      memo.line == first_line && memo.page == first_page && (!is_write || memo.writable)) {
    ++fp.line_hits;
    ++st.l1_hits;
    result.latency = is_write ? params_.store_hit_latency : params_.l1_latency;
    return result;
  }

  // Translation and page-fault handling (per page touched).
  for (uint64_t page = first_page; page <= last_page; ++page) {
    if (fast_path_enabled_ && page == memo.page) {
      // Present and MRU in the L1 TLB: a repeat Translate costs 0 and the
      // first-touch check cannot fire.
      ++fp.page_hits;
      continue;
    }
    result.latency += tlbs_[core]->Translate(page << asfcommon::kPageShift);
    memo.page = page;
    if (state_.MarkPresent(page)) {
      result.latency += params_.page_fault_cycles;
      result.page_fault = true;
      ++st.page_faults;
    }
  }

  // Cache access per line touched.
  for (uint64_t line = first_line; line <= last_line; ++line) {
    result.latency += AccessLine(core, line, is_write);
  }
  return result;
}

uint64_t MemorySystem::AccessLine(uint32_t core, uint64_t line, bool is_write) {
  MemStats& st = stats_[core];
  LineState& dir = state_.Line(line);
  const uint8_t self_tag = OwnerTag(core);
  const uint32_t self_bit = 1u << core;
  CoreMemo& memo = memos_[core];
  // Every exit below leaves `line` MRU in this core's L1, so the memo is
  // re-armed unconditionally; `writable` is refreshed per-path to mirror the
  // directory's owner field.
  memo.line = line;

  if (!is_write) {
    // ---- Load path ----
    if (l1s_[core]->Touch(line)) {
      ++st.l1_hits;
      memo.writable = dir.owner == self_tag;
      return params_.l1_latency;
    }
    if (l2s_[core]->Touch(line)) {
      ++st.l2_hits;
      FillLine(core, line);
      dir.sharers |= self_bit;
      memo.writable = dir.owner == self_tag;
      return params_.l2_latency;
    }
    uint64_t latency;
    if (dir.owner != kNoOwner && dir.owner != self_tag) {
      // Dirty in a remote cache: cache-to-cache forward; owner downgrades to
      // shared (stays a sharer) — and loses its store fast path, since a
      // store now needs the upgrade round-trip.
      CoreMemo& owner_memo = memos_[dir.owner - 1];
      if (owner_memo.line == line) {
        owner_memo.writable = false;
      }
      ++st.remote_hits;
      latency = params_.remote_latency;
      dir.owner = kNoOwner;
    } else if (l3_.TouchOrInsert(line)) {
      ++st.l3_hits;
      latency = params_.l3_latency;
    } else {
      ++st.ram_accesses;
      latency = params_.ram_latency;
    }
    FillLine(core, line);
    dir.sharers |= self_bit;
    memo.writable = dir.owner == self_tag;
    return latency;
  }

  // ---- Store path ----
  bool in_l1 = l1s_[core]->Touch(line);
  bool exclusive = dir.owner == self_tag ||
                   (dir.sharers == self_bit && dir.owner == kNoOwner);
  if (in_l1 && dir.owner == self_tag) {
    ++st.l1_hits;
    memo.writable = true;
    return params_.store_hit_latency;
  }

  // Invalidate all other private copies.
  for (uint32_t c = 0; c < num_cores(); ++c) {
    if (c != core && (dir.sharers & (1u << c)) != 0) {
      DropFromCore(c, line);
    }
  }
  dir.sharers = self_bit;

  uint64_t latency;
  if (in_l1 || l2s_[core]->Touch(line)) {
    // Present locally; pay the upgrade round-trip if it was shared.
    latency = exclusive ? params_.store_hit_latency : params_.upgrade_latency;
    if (!exclusive) {
      ++st.upgrades;
    }
    if (in_l1) {
      ++st.l1_hits;
    } else {
      ++st.l2_hits;
    }
  } else if (dir.owner != kNoOwner && dir.owner != self_tag) {
    ++st.remote_hits;
    latency = params_.remote_latency;
  } else if (l3_.TouchOrInsert(line)) {
    ++st.l3_hits;
    latency = params_.l3_latency;
  } else {
    ++st.ram_accesses;
    latency = params_.ram_latency;
  }
  FillLine(core, line);
  dir.owner = self_tag;
  memo.writable = true;
  return latency;
}

void MemorySystem::FillLine(uint32_t core, uint64_t line) {
  if (auto evicted = l1s_[core]->Insert(line)) {
    // L1 victim moves down to L2 (victim-cache style private hierarchy).
    l2s_[core]->Insert(*evicted);
    if (listener_ != nullptr) {
      listener_->OnL1LineDropped(core, *evicted);
    }
  }
  l2s_[core]->Insert(line);
}

void MemorySystem::DropFromCore(uint32_t core, uint64_t line) {
  // The memo promised an L1 MRU hit; the line is leaving the L1, so kill it.
  // (The page memo is translation state and survives coherence traffic.)
  CoreMemo& memo = memos_[core];
  if (memo.line == line) {
    memo.line = kNoAddr;
    memo.writable = false;
  }
  bool was_in_l1 = l1s_[core]->Invalidate(line);
  l2s_[core]->Invalidate(line);
  if (was_in_l1 && listener_ != nullptr) {
    listener_->OnL1LineDropped(core, line);
  }
}

void MemorySystem::PretouchPages(uint64_t addr, uint64_t bytes) {
  state_.MarkPresent(PageOf(addr), PageOf(addr + (bytes == 0 ? 0 : bytes - 1)));
}

void MemorySystem::FlushLine(uint64_t line) {
  for (uint32_t c = 0; c < num_cores(); ++c) {
    DropFromCore(c, line);
  }
  l3_.Invalidate(line);
  state_.Line(line) = LineState{};
}

MemStats MemorySystem::TotalStats() const {
  MemStats total;
  for (const auto& s : stats_) {
    total.loads += s.loads;
    total.stores += s.stores;
    total.l1_hits += s.l1_hits;
    total.l2_hits += s.l2_hits;
    total.l3_hits += s.l3_hits;
    total.remote_hits += s.remote_hits;
    total.ram_accesses += s.ram_accesses;
    total.upgrades += s.upgrades;
    total.page_faults += s.page_faults;
  }
  return total;
}

void MemorySystem::ResetStats() {
  for (auto& s : stats_) {
    s = MemStats{};
  }
}

}  // namespace asfmem
