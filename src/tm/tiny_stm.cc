// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/tiny_stm.h"

#include <cstring>

namespace asftm {

using asfcommon::AbortCause;
using asfsim::AccessKind;
using asfsim::CategoryGuard;
using asfsim::CycleCategory;
using asfsim::SimThread;
using asfsim::Task;

// Modeled instruction counts of the STM's fixed software paths.
constexpr uint32_t kBeginInstructions = 40;  // sigsetjmp + descriptor setup.
constexpr uint32_t kCommitInstructions = 30;
constexpr uint32_t kValidateInstructionsPerEntry = 4;
constexpr uint32_t kAllocInstructions = 12;

// Transaction handle for the STM path. All barriers run software protocol
// steps whose memory traffic goes through the simulated hierarchy.
class StmTx : public Tx {
 public:
  StmTx(TinyStm& rt, SimThread& t, TinyStm::PerThread& pt) : Tx(t), rt_(rt), pt_(pt) {}

  Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.load_instructions);
    TinyStm::Orec* o = rt_.OrecFor(addr);
    co_await t.Access(AccessKind::kLoad, &o->word, 8);
    uint64_t w = o->word;
    if (TinyStm::Locked(w)) {
      if (TinyStm::OwnerOf(w) != t.id()) {
        co_await rt_.RollbackAndAbort(t, pt_);  // Never resumes.
      }
      // Reading our own write: write-through memory is fresh and protected.
      co_await t.Access(AccessKind::kLoad, addr, size);
      uint64_t own = 0;
      std::memcpy(&own, reinterpret_cast<const void*>(addr), size);
      co_return own;
    }
    if (TinyStm::VersionOf(w) > pt_.rv) {
      // The location changed after our snapshot: try a timestamp extension.
      co_await rt_.ExtendOrAbort(t, pt_);
    }
    // Data load, then the TinySTM recheck: if the orec changed while we read
    // (a writer locked it, or locked and rolled back), the value may be
    // dirty and the transaction must abort.
    co_await t.Access(AccessKind::kLoad, addr, size);
    uint64_t value = 0;
    std::memcpy(&value, reinterpret_cast<const void*>(addr), size);
    co_await t.Access(AccessKind::kLoad, &o->word, 8);
    if (o->word != w) {
      co_await rt_.RollbackAndAbort(t, pt_);
    }
    // Track the read; the append also costs a (thread-local) store.
    ASF_CHECK_MSG(pt_.read_count < rt_.params_.max_read_set, "STM read set overflow");
    pt_.read_set[pt_.read_count] = {o, TinyStm::VersionOf(w)};
    TinyStm::ReadEntry* slot = &pt_.read_set[pt_.read_count++];
    co_await t.Access(AccessKind::kStore, slot, sizeof(TinyStm::ReadEntry));
    co_return value;
  }

  Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxLoadStore);
    t.core().WorkInstructions(rt_.params_.store_instructions);
    TinyStm::Orec* o = rt_.OrecFor(addr);
    co_await t.Access(AccessKind::kLoad, &o->word, 8);
    uint64_t w = o->word;
    bool locked_here = false;
    if (TinyStm::Locked(w)) {
      if (TinyStm::OwnerOf(w) != t.id()) {
        co_await rt_.RollbackAndAbort(t, pt_);
      }
    } else {
      if (TinyStm::VersionOf(w) > pt_.rv) {
        co_await rt_.ExtendOrAbort(t, pt_);
      }
      // Encounter-time locking.
      uint64_t ok = co_await t.Cas(&o->word, 8, w, TinyStm::LockWord(t.id()));
      if (ok == 0) {
        co_await rt_.RollbackAndAbort(t, pt_);
      }
      locked_here = true;
    }
    // Undo-log the old value, then write through.
    co_await t.Access(AccessKind::kLoad, addr, size);
    uint64_t old_value = 0;
    std::memcpy(&old_value, reinterpret_cast<const void*>(addr), size);
    ASF_CHECK_MSG(pt_.write_count < rt_.params_.max_write_set, "STM write set overflow");
    pt_.write_set[pt_.write_count] = {addr, size, old_value, o, w, locked_here};
    TinyStm::WriteEntry* slot = &pt_.write_set[pt_.write_count++];
    co_await t.Access(AccessKind::kStore, slot, sizeof(TinyStm::WriteEntry));
    co_await t.Store(AccessKind::kStore, addr, size, value);
  }

  Task<void*> TxMalloc(uint64_t bytes) override {
    SimThread& t = thread();
    CategoryGuard g(t.core(), CycleCategory::kTxNonInstr);
    t.core().WorkInstructions(kAllocInstructions);
    void* p = pt_.alloc.TryAlloc(bytes);
    if (p == nullptr) {
      // STM attempts survive syscalls: refill inline.
      co_await t.Access(AccessKind::kSyscall, uint64_t{0}, 1);
      pt_.alloc.Refill(bytes);
      p = pt_.alloc.TryAlloc(bytes);
      ASF_CHECK(p != nullptr);
    }
    co_return p;
  }

  Task<void> TxFree(void* p) override {
    thread().core().WorkInstructions(4);
    pt_.alloc.DeferFree(p);
    co_return;
  }

  Task<void> UserAbort() override {
    co_await rt_.RollbackWith(thread(), pt_, AbortCause::kUserAbort);
  }

 private:
  TinyStm& rt_;
  TinyStm::PerThread& pt_;
};

TinyStm::TinyStm(asf::Machine& machine, const TinyStmParams& params)
    : RetryDriver(machine, asfobs::TxMode::kStm, params.policy, params.rng_seed),
      params_(params) {
  asfcommon::SimArena& arena = machine.arena();
  arena_base_ = arena.base();
  orec_count_ = uint64_t{1} << params.orec_count_log2;
  orecs_ = arena.NewArray<Orec>(orec_count_);
  clock_ = arena.New<GlobalClock>();
  AddThreads<PerThread>();
  for (auto& thread : threads_) {
    auto& pt = static_cast<PerThread&>(*thread);
    pt.alloc.Refill(1);
    pt.read_set = arena.NewArray<ReadEntry>(params.max_read_set);
    pt.write_set = arena.NewArray<WriteEntry>(params.max_write_set);
  }
  // The STM image (orec table, clock, descriptor arrays) is resident after
  // process initialization, which the paper fast-forwards.
  machine.mem().PretouchPages(reinterpret_cast<uint64_t>(orecs_), orec_count_ * sizeof(Orec));
  machine.mem().PretouchPages(reinterpret_cast<uint64_t>(clock_), sizeof(GlobalClock));
  for (auto& thread : threads_) {
    auto& pt = static_cast<PerThread&>(*thread);
    machine.mem().PretouchPages(reinterpret_cast<uint64_t>(pt.read_set),
                                params.max_read_set * sizeof(ReadEntry));
    machine.mem().PretouchPages(reinterpret_cast<uint64_t>(pt.write_set),
                                params.max_write_set * sizeof(WriteEntry));
  }
}

TinyStm::~TinyStm() = default;

Task<bool> TinyStm::Validate(SimThread& t, PerThread& pt) {
  for (uint64_t i = 0; i < pt.read_count; ++i) {
    const ReadEntry& e = pt.read_set[i];
    t.core().WorkInstructions(kValidateInstructionsPerEntry);
    co_await t.Access(AccessKind::kLoad, &e.orec->word, 8);
    uint64_t w = e.orec->word;
    if (Locked(w)) {
      if (OwnerOf(w) != t.id()) {
        co_return false;
      }
      continue;  // Our own lock: valid.
    }
    if (VersionOf(w) != e.version) {
      co_return false;
    }
  }
  co_return true;
}

Task<void> TinyStm::ExtendOrAbort(SimThread& t, PerThread& pt) {
  co_await t.Access(AccessKind::kLoad, &clock_->time, 8);
  uint64_t now = clock_->time;
  bool ok = co_await Validate(t, pt);
  if (!ok) {
    co_await RollbackAndAbort(t, pt);
  }
  pt.rv = now;
}

Task<void> TinyStm::RollbackAndAbort(SimThread& t, PerThread& pt) {
  co_await RollbackWith(t, pt, AbortCause::kStmConflict);
}

Task<void> TinyStm::RollbackWith(SimThread& t, PerThread& pt, AbortCause cause) {
  // Restore the undo log in reverse, then release the orecs we locked.
  // Write-through rollback must release with a *fresh* timestamp, not the
  // pre-lock word: restoring the old word re-creates the exact value a
  // concurrent reader validated against (orec ABA), letting it keep a dirty
  // value it captured while our speculative write was in memory. TinySTM
  // advances the global clock on rollback for precisely this reason.
  for (uint64_t i = pt.write_count; i-- > 0;) {
    const WriteEntry& e = pt.write_set[i];
    co_await t.Store(AccessKind::kStore, e.addr, e.size, e.old_value);
  }
  if (pt.write_count > 0) {
    uint64_t ts = co_await t.FetchAdd(&clock_->time, 8, 1) + 1;
    for (uint64_t i = 0; i < pt.write_count; ++i) {
      const WriteEntry& e = pt.write_set[i];
      if (e.locked_here) {
        co_await t.Store(AccessKind::kStore, &e.orec->word, 8, VersionWord(ts));
      }
    }
  }
  co_await t.AbortSelf(cause);  // Unwinds the attempt; never resumes.
}

Task<void> TinyStm::Commit(SimThread& t, PerThread& pt) {
  CategoryGuard g(t.core(), CycleCategory::kTxStartCommit);
  t.core().WorkInstructions(kCommitInstructions);
  if (pt.write_count == 0) {
    co_return;  // Read-only: the timestamp discipline makes it valid as-is.
  }
  uint64_t ts = co_await t.FetchAdd(&clock_->time, 8, 1) + 1;
  if (ts != pt.rv + 1) {
    // Someone committed since our snapshot: the read set must be re-checked.
    bool ok = co_await Validate(t, pt);
    if (!ok) {
      co_await RollbackAndAbort(t, pt);
    }
  }
  for (uint64_t i = 0; i < pt.write_count; ++i) {
    const WriteEntry& e = pt.write_set[i];
    if (e.locked_here) {
      co_await t.Store(AccessKind::kStore, &e.orec->word, 8, VersionWord(ts));
    }
  }
}

Task<void> TinyStm::Attempt(SimThread& t, TxThread& thread, const BodyFn& body) {
  auto& pt = static_cast<PerThread&>(thread);
  pt.read_count = 0;
  pt.write_count = 0;
  {
    CategoryGuard g(t.core(), CycleCategory::kTxStartCommit);
    t.core().WorkInstructions(kBeginInstructions);
    co_await t.Access(AccessKind::kLoad, &clock_->time, 8);
    pt.rv = clock_->time;
  }
  {
    CategoryGuard g(t.core(), CycleCategory::kTxAppCode);
    StmTx tx(*this, t, pt);
    co_await body(tx);
  }
  co_await Commit(t, pt);
}

Task<bool> TinyStm::Fallback(SimThread&, TxThread&, BodyFn&, uint32_t) {
  co_return false;
}

}  // namespace asftm
