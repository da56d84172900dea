// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// FNV-1a digests over 64-bit words, the one hash behind the stress
// harness's set digest, the litmus state signatures and the event pins.
// Each word is mixed as its eight little-endian bytes, so a digest is the
// FNV-1a hash of the words' byte image on any host.
#ifndef SRC_COMMON_DIGEST_H_
#define SRC_COMMON_DIGEST_H_

#include <cstdint>

namespace asfcommon {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

// Folds the eight bytes of `v` into the running digest `h`.
inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace asfcommon

#endif  // SRC_COMMON_DIGEST_H_
