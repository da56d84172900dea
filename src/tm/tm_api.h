// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// The TM runtime interface used by all workloads — our analog of the Intel
// TM ABI the paper's DTMC targets (Sec. 3.1).
//
// Workload code is written once against Tx (the per-attempt transaction
// handle) and TmRuntime::Atomic (the transaction-statement driver); which
// runtime executes it — ASF hardware path, serial-irrevocable fallback,
// TinySTM, or uninstrumented sequential — is a runtime decision, exactly the
// property the ABI exists for ("the same binary code runs on machines
// regardless of whether they support ASF"). The virtual dispatch here plays
// the role of the ABI's function-pointer dispatch tables; the runtimes
// charge the corresponding call-overhead cycles, and shrinking that cost
// models the paper's static-linking + link-time-optimization configuration.
#ifndef SRC_TM_TM_API_H_
#define SRC_TM_TM_API_H_

#include <coroutine>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>

#include "src/common/defs.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"
#include "src/tm/tm_stats.h"

namespace asftm {

// Awaiter of one typed barrier (Tx::Read, Tx::Write), with no coroutine frame
// of its own. It either runs the handle's virtual barrier task or, for a
// handle with direct barriers, is that barrier: it switches the core to
// kTxLoadStore, charges the ABI dispatch instructions and issues the one
// access itself. The caller's cycle category comes back on resume, or in the
// destructor when an abort destroys the awaiting frame mid-access — the two
// points where a barrier coroutine's CategoryGuard would restore it. T is the
// value read, or void for a write.
template <typename T>
class BarrierAwaiter {
 public:
  using Raw = std::conditional_t<std::is_void_v<T>, void, uint64_t>;

  explicit BarrierAwaiter(asfsim::Task<Raw> task) : task_(std::move(task)) {}
  BarrierAwaiter(asfsim::SimThread& t, asfsim::AccessKind kind, uint64_t addr, uint32_t size,
                 uint64_t value, uint32_t instructions)
      : direct_(&t), addr_(addr), value_(value), size_(size), instructions_(instructions),
        kind_(kind) {}
  BarrierAwaiter(const BarrierAwaiter&) = delete;
  BarrierAwaiter& operator=(const BarrierAwaiter&) = delete;
  ~BarrierAwaiter() {
    if (restore_) {
      direct_->core().SetCategory(prev_);
    }
  }

  bool await_ready() const noexcept { return false; }

  std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) noexcept {
    if (direct_ == nullptr) {
      task_.SetContinuation(h);
      return task_.handle();
    }
    asfsim::Core& core = direct_->core();
    prev_ = core.category();
    restore_ = true;
    core.SetCategory(asfsim::CycleCategory::kTxLoadStore);
    core.WorkInstructions(instructions_);
    if constexpr (std::is_void_v<T>) {
      return direct_->Store(kind_, addr_, size_, value_).await_suspend(h);
    } else {
      return direct_->Access(kind_, addr_, size_).await_suspend(h);
    }
  }

  T await_resume() noexcept {
    if (direct_ != nullptr) {
      direct_->core().SetCategory(prev_);
      restore_ = false;
    }
    if constexpr (!std::is_void_v<T>) {
      uint64_t raw = 0;
      if (direct_ == nullptr) {
        raw = task_.handle().promise().value;
      } else {
        // Safe to read host memory now: a direct read is a protected load or
        // runs serially, so no conflicting write can have landed meanwhile.
        std::memcpy(&raw, reinterpret_cast<const void*>(addr_), size_);
      }
      T out;
      std::memcpy(&out, &raw, sizeof(T));
      return out;
    }
  }

 private:
  asfsim::Task<Raw> task_;               // The virtual barrier; empty when direct.
  asfsim::SimThread* direct_ = nullptr;  // The issuing thread of a direct barrier.
  uint64_t addr_ = 0;
  uint64_t value_ = 0;  // A direct write's value.
  uint32_t size_ = 0;
  uint32_t instructions_ = 0;
  asfsim::AccessKind kind_ = asfsim::AccessKind::kLoad;
  asfsim::CycleCategory prev_ = asfsim::CycleCategory::kOutsideTx;
  bool restore_ = false;  // Suspended in a direct access: prev_ is owed.
};

// Per-attempt transaction handle. A fresh Tx view is passed to the atomic
// block body on every attempt; its dynamic type encodes the execution mode.
class Tx {
 public:
  explicit Tx(asfsim::SimThread& thread) : thread_(thread) {}
  virtual ~Tx() = default;

  asfsim::SimThread& thread() { return thread_; }

  // Charges `instructions` of application compute to the current cycle
  // category (instrumented app code while inside the body).
  void Work(uint64_t instructions) { thread_.core().WorkInstructions(instructions); }

  // True in serial-irrevocable mode (the body may then perform actions that
  // cannot be rolled back).
  virtual bool irrevocable() const { return false; }

  // --- Typed barriers ---------------------------------------------------------
  // `co_await tx.Read(&x)` yields x's value; `co_await tx.Write(&x, v)` stores
  // v. Both return a BarrierAwaiter, so a barrier costs at most the virtual
  // barrier's frame, and none on a handle with direct barriers.
  template <typename T>
  BarrierAwaiter<T> Read(const T* p) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
    const uint64_t addr = reinterpret_cast<uint64_t>(p);
    if (direct_.reads) {
      return BarrierAwaiter<T>(thread_, direct_.load, addr, sizeof(T), 0, direct_.instructions);
    }
    return BarrierAwaiter<T>(ReadBarrier(addr, sizeof(T)));
  }

  template <typename T>
  BarrierAwaiter<void> Write(T* p, T v) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8);
    const uint64_t addr = reinterpret_cast<uint64_t>(p);
    uint64_t raw = 0;
    std::memcpy(&raw, &v, sizeof(T));
    if (direct_.writes) {
      return BarrierAwaiter<void>(thread_, direct_.store, addr, sizeof(T), raw,
                                  direct_.instructions);
    }
    return BarrierAwaiter<void>(WriteBarrier(addr, sizeof(T), raw));
  }

  // Early-release hint: drop the object at `p` from the read set (maps to
  // ASF RELEASE; a no-op for runtimes without the capability).
  template <typename T>
  asfsim::Task<void> Release(const T* p) {
    return ReleaseBarrier(reinterpret_cast<uint64_t>(p), sizeof(T));
  }

  // Transaction-safe allocation: memory becomes permanent on commit and is
  // reclaimed if the transaction aborts.
  virtual asfsim::Task<void*> TxMalloc(uint64_t bytes) = 0;

  // Transaction-safe free: deferred until the transaction commits.
  virtual asfsim::Task<void> TxFree(void* p) = 0;

  // Explicit transaction cancel (language-level abort). Never resumes.
  virtual asfsim::Task<void> UserAbort() = 0;

 protected:
  // Monitored read barrier: returns the value read (size <= 8 bytes,
  // little-endian). The barrier captures the value itself so that software
  // TMs can re-validate their metadata *after* the data load — returning a
  // pointer dereference to the caller instead would open a dirty-read window
  // against writers that subsequently abort. A handle with direct reads
  // keeps this default, which Read never calls.
  virtual asfsim::Task<uint64_t> ReadBarrier(uint64_t addr, uint32_t size);

  // Transactional store of `value` (size <= 8 bytes). A handle with direct
  // writes keeps this default, which Write never calls.
  virtual asfsim::Task<void> WriteBarrier(uint64_t addr, uint32_t size, uint64_t value);

  // Early-release barrier behind Release.
  virtual asfsim::Task<void> ReleaseBarrier(uint64_t addr, uint32_t size);

  // Direct barriers: a handle whose read barrier is one `load` access after
  // `instructions` of ABI dispatch under kTxLoadStore (and, with `writes`,
  // whose write barrier is one `store` of the value, likewise) sets these in
  // its constructor, and Read/Write issue that access from their awaiter.
  struct DirectBarriers {
    bool reads = false;
    bool writes = false;
    asfsim::AccessKind load = asfsim::AccessKind::kLoad;
    asfsim::AccessKind store = asfsim::AccessKind::kStore;
    uint32_t instructions = 0;
  };
  DirectBarriers direct_;

 private:
  asfsim::SimThread& thread_;
};

// The body of an atomic block; invoked once per attempt with the attempt's
// transaction handle.
using BodyFn = std::function<asfsim::Task<void>(Tx&)>;

// A TM runtime implementing the ABI for one execution strategy.
class TmRuntime {
 public:
  virtual ~TmRuntime() = default;

  virtual std::string name() const = 0;

  // Executes one atomic block on `thread`: runs `body` under the runtime's
  // concurrency-control algorithm until it commits (or is cancelled by
  // Tx::UserAbort).
  virtual asfsim::Task<void> Atomic(asfsim::SimThread& thread, BodyFn body) = 0;

  // Per-thread statistics and the aggregate across threads.
  virtual const TxStats& stats(uint32_t thread_id) const = 0;
  virtual TxStats TotalStats() const = 0;
  virtual void ResetStats() = 0;
};

inline asfsim::Task<uint64_t> Tx::ReadBarrier(uint64_t addr, uint32_t size) {
  ASF_CHECK_MSG(false, "virtual read barrier of a handle with direct reads");
  return {};
}

inline asfsim::Task<void> Tx::WriteBarrier(uint64_t addr, uint32_t size, uint64_t value) {
  ASF_CHECK_MSG(false, "virtual write barrier of a handle with direct writes");
  return {};
}

inline asfsim::Task<void> Tx::ReleaseBarrier(uint64_t addr, uint32_t size) {
  co_return;  // Hint only; runtimes without early release ignore it.
}

}  // namespace asftm

#endif  // SRC_TM_TM_API_H_
