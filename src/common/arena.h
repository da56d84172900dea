// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Deterministic host-memory arena for simulation-visible data.
//
// The simulator derives cache-set indices, page numbers, and cache-line
// identities from host addresses. Allocating benchmark data directly from
// the host heap would make cycle counts depend on where the heap happens to
// land (an ASLR effect); instead, every machine owns one SimArena whose base
// is aligned to 4 MiB — larger than any cache's set-index span and than the
// page size — so that the *relative* layout of all simulation-visible
// objects, and therefore every set index and page boundary, is identical
// across runs. Combined with the seeded RNGs and the deterministic
// scheduler, whole experiments become bit-for-bit reproducible.
//
// The arena is a bump allocator over a lazily-populated anonymous mapping;
// it never frees individual objects (its lifetime is the machine's).
#ifndef SRC_COMMON_ARENA_H_
#define SRC_COMMON_ARENA_H_

#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/defs.h"

namespace asfcommon {

class SimArena {
 public:
  // 4 MiB alignment covers every set-index span in the modeled hierarchy.
  static constexpr uint64_t kBaseAlignment = 4ull << 20;

  explicit SimArena(uint64_t capacity_bytes = 512ull << 20);
  ~SimArena();

  SimArena(const SimArena&) = delete;
  SimArena& operator=(const SimArena&) = delete;

  // Bump-allocates `bytes` with the given alignment (power of two).
  void* Alloc(uint64_t bytes, uint64_t align = 64);

  // Allocates and constructs a T (cache-line aligned by default).
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    void* p = Alloc(sizeof(T), alignof(T) > 64 ? alignof(T) : 64);
    return new (p) T(std::forward<Args>(args)...);
  }

  // Allocates a zero-initialized array of `count` Ts.
  //
  // Arena bytes come from a fresh anonymous mapping, which the kernel hands
  // out zero-filled, and the bump allocator never frees or reuses them. A
  // span of trivially default-constructible, trivially destructible Ts
  // therefore already holds its value-initialized (all-zero) state, and is
  // returned unconstructed: writing those zeros would only fault in every
  // host page of the span, which for the STM's orec table and logs is tens
  // of MiB that a run mostly never touches. Types with default member
  // initializers are still constructed. An arena reset or reuse would break
  // this invariant and must revisit the skip.
  template <typename T>
  T* NewArray(uint64_t count, uint64_t align = 64) {
    void* p = Alloc(count * sizeof(T), align);
    if constexpr (std::is_trivially_default_constructible_v<T> &&
                  std::is_trivially_destructible_v<T>) {
      return static_cast<T*>(p);
    } else {
      return new (p) T[count]();
    }
  }

  uint64_t base() const { return reinterpret_cast<uint64_t>(base_); }
  uint64_t used() const { return used_; }
  uint64_t capacity() const { return capacity_; }

 private:
  void* raw_ = nullptr;     // The full mapping (for munmap).
  uint64_t raw_bytes_ = 0;
  uint8_t* base_ = nullptr;  // Aligned start.
  uint64_t capacity_ = 0;
  uint64_t used_ = 0;
};

}  // namespace asfcommon

#endif  // SRC_COMMON_ARENA_H_
