// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Coroutine task type used to express simulated thread code.
//
// Simulated threads (and every function they call that touches simulated
// memory) are C++20 coroutines returning Task<T>. The typed TM barriers are
// the exception: Tx::Read/Write return an awaiter (asftm::BarrierAwaiter)
// that runs the runtime's barrier task, or issues the access itself when the
// barrier is one access, so they add no frame of their own. Awaiting a child
// task transfers control into it symmetrically; when the child finishes, its
// final suspend transfers control back to the awaiting parent. A task tree
// that is suspended (always at a memory-access awaitable, see scheduler.h)
// can be destroyed from the outside: destroying the outermost frame runs the
// destructors of its locals and of the awaiter it is suspended in, which
// destroys the child Task objects held in the frame and thereby the entire
// tree. The TM runtimes use this to implement transaction aborts without
// exceptions: ASF rolls execution back to the instruction after SPECULATE;
// we roll back by destroying the attempt's coroutine tree and resuming the
// retry loop.
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <coroutine>
#include <cstddef>
#include <cstdlib>
#include <utility>

#include "src/common/defs.h"
#include "src/common/frame_pool.h"

namespace asfsim {

// Final awaiter: symmetric transfer to the continuation if one was set;
// otherwise park at final suspend (the owner observes Done()).
struct FinalAwaiter {
  bool await_ready() noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    auto cont = h.promise().continuation;
    if (cont) {
      return cont;
    }
    return std::noop_coroutine();
  }
  void await_resume() noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation;

  // Frames cycle through the per-thread recycler (src/common/frame_pool.h),
  // so an aborted attempt's frame tree is reused by the retry. Only the
  // sized delete is declared: the frame size it receives names the size
  // class, so blocks need no header.
  static void* operator new(std::size_t size) {
    return asfcommon::FramePool::ForThread().Alloc(size);
  }
  static void operator delete(void* p, std::size_t size) noexcept {
    asfcommon::FramePool::Free(p, size);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  // The simulation does not use exceptions for control flow; any escaping
  // exception is a bug (or OOM) and terminates.
  void unhandled_exception() { std::abort(); }
};

template <typename T>
class Task;

template <typename T>
struct TaskPromise : PromiseBase {
  T value{};

  Task<T> get_return_object();
  void return_value(T v) { value = std::move(v); }
};

template <>
struct TaskPromise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

// A lazily-started coroutine owning its frame. Move-only.
template <typename T>
class Task {
 public:
  using promise_type = TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  // Destroys the coroutine frame (legal while suspended); children owned by
  // frame locals are destroyed transitively. No-op if empty.
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  bool Valid() const { return static_cast<bool>(handle_); }
  bool Done() const { return handle_ && handle_.done(); }
  Handle handle() const { return handle_; }

  void SetContinuation(std::coroutine_handle<> cont) { handle_.promise().continuation = cont; }

  // Awaiting a task starts it (symmetric transfer) and resumes the awaiter
  // when the task completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;
      }
      T await_resume() noexcept {
        if constexpr (!std::is_void_v<T>) {
          return std::move(handle.promise().value);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  Handle handle_ = nullptr;
};

template <typename T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<TaskPromise<T>>::from_promise(*this));
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>(std::coroutine_handle<TaskPromise<void>>::from_promise(*this));
}

}  // namespace asfsim

#endif  // SRC_SIM_TASK_H_
