// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Basic constants and helpers shared by every module of the ASF TM stack.
#ifndef SRC_COMMON_DEFS_H_
#define SRC_COMMON_DEFS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace asfcommon {

// Simulated machine geometry. The paper models 64-byte cache lines
// throughout (ASF's unit of protection is the cache line).
inline constexpr uint64_t kCacheLineBytes = 64;
inline constexpr uint64_t kCacheLineShift = 6;
inline constexpr uint64_t kPageBytes = 4096;
inline constexpr uint64_t kPageShift = 12;

// Most cores a simulated machine has: the paper's eight-core Barcelona
// setup. Per-line core bitmaps (src/mem/state_table.h) are one byte wide.
inline constexpr uint32_t kMaxCores = 8;

// Simulated clock frequency: 2.2 GHz (paper Section 5); cycles per
// microsecond, used to report throughput in transactions per microsecond.
inline constexpr uint64_t kCyclesPerMicrosecond = 2200;

// Returns the cache-line index of a (host) address used as a simulated
// physical address.
constexpr uint64_t LineOf(uint64_t addr) { return addr >> kCacheLineShift; }
constexpr uint64_t LineBase(uint64_t addr) { return addr & ~(kCacheLineBytes - 1); }
constexpr uint64_t PageOf(uint64_t addr) { return addr >> kPageShift; }

// CHECK-style assertion that is active in all build types. Simulation
// invariants guard against silent corruption of results; failing fast with a
// message is preferable to producing wrong tables.
#define ASF_CHECK(cond)                                                             \
  do {                                                                              \
    if (!(cond)) {                                                                  \
      ::std::fprintf(stderr, "ASF_CHECK failed at %s:%d: %s\n", __FILE__, __LINE__, \
                     #cond);                                                        \
      ::std::abort();                                                               \
    }                                                                               \
  } while (0)

#define ASF_CHECK_MSG(cond, msg)                                                 \
  do {                                                                           \
    if (!(cond)) {                                                               \
      ::std::fprintf(stderr, "ASF_CHECK failed at %s:%d: %s (%s)\n", __FILE__,   \
                     __LINE__, #cond, msg);                                      \
      ::std::abort();                                                            \
    }                                                                            \
  } while (0)

}  // namespace asfcommon

#endif  // SRC_COMMON_DEFS_H_
