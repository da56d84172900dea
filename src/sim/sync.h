// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Blocking synchronization primitives for simulated threads.
//
// These park a thread without a pending event; the releasing thread wakes
// waiters through the scheduler at the release cycle. They are used outside
// speculative regions only (e.g. waiting for the serial-irrevocable token or
// at benchmark phase barriers) — a parked thread cannot be aborted.
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <coroutine>
#include <deque>

#include "src/common/defs.h"
#include "src/sim/scheduler.h"

namespace asfsim {

// FIFO mutex. Acquire from a coroutine with `co_await mu.Acquire(thread)`.
class SimMutex {
 public:
  struct Awaiter {
    SimMutex& mu;
    SimThread& t;
    bool await_ready() const noexcept {
      if (mu.owner_ == nullptr) {
        mu.owner_ = &t;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      t.resume_point_ = h;
      t.phase_ = SimThread::Phase::kBlocked;
      mu.waiters_.push_back(&t);
    }
    void await_resume() const noexcept { ASF_CHECK(mu.owner_ == &t); }
  };

  Awaiter Acquire(SimThread& t) { return Awaiter{*this, t}; }

  // Returns true if the mutex is currently held (by anyone).
  bool IsLocked() const { return owner_ != nullptr; }
  const SimThread* owner() const { return owner_; }

  // Releases the mutex; ownership transfers to the head waiter, which is
  // woken at the releasing core's current cycle (or its own, if later).
  void Release(SimThread& t) {
    ASF_CHECK_MSG(owner_ == &t, "release by non-owner");
    if (waiters_.empty()) {
      owner_ = nullptr;
      return;
    }
    SimThread* next = waiters_.front();
    waiters_.pop_front();
    owner_ = next;
    next->phase_ = SimThread::Phase::kIdle;
    uint64_t wake = t.core().clock();
    if (next->core().clock() > wake) {
      wake = next->core().clock();
    }
    t.scheduler().ScheduleWake(*next, wake);
  }

 private:
  SimThread* owner_ = nullptr;
  std::deque<SimThread*> waiters_;
};

// Sense-reversing barrier for `count` threads.
class SimBarrier {
 public:
  explicit SimBarrier(uint32_t count) : count_(count) {}

  struct Awaiter {
    SimBarrier& b;
    SimThread& t;
    bool await_ready() const noexcept { return b.count_ <= 1; }
    bool await_suspend(std::coroutine_handle<> h) noexcept {
      if (b.arrived_ + 1 == b.count_) {
        // Last arrival: release everyone at the maximum arrival cycle.
        uint64_t wake = t.core().clock();
        for (SimThread* w : b.waiters_) {
          if (w->core().clock() > wake) {
            wake = w->core().clock();
          }
        }
        for (SimThread* w : b.waiters_) {
          w->phase_ = SimThread::Phase::kIdle;
          t.scheduler().ScheduleWake(*w, wake);
        }
        b.waiters_.clear();
        b.arrived_ = 0;
        // The releaser itself also pays until the barrier cycle.
        t.core().AdvanceTo(wake);
        return false;  // Do not suspend.
      }
      ++b.arrived_;
      t.resume_point_ = h;
      t.phase_ = SimThread::Phase::kBlocked;
      b.waiters_.push_back(&t);
      return true;
    }
    void await_resume() const noexcept {}
  };

  Awaiter Arrive(SimThread& t) { return Awaiter{*this, t}; }

 private:
  friend struct Awaiter;

  uint32_t count_;
  uint32_t arrived_ = 0;
  std::deque<SimThread*> waiters_;
};

}  // namespace asfsim

#endif  // SRC_SIM_SYNC_H_
