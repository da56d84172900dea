// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/contention_policy.h"

#include <cstdlib>

namespace asftm {

using asfcommon::AbortCause;

ContentionPolicy::Slot& ContentionPolicy::SlotFor(uint32_t tid) {
  while (slots_.size() <= tid) {
    const uint64_t i = slots_.size();
    slots_.emplace_back();
    slots_.back().rng.Seed(seed_ + i * params_.seed_stride);
  }
  return slots_[tid];
}

PolicyDecision ContentionPolicy::OnAbort(uint32_t tid, AbortCause cause) {
  if (IsTransientCause(cause)) {
    return {PolicyAction::kRetryNow, 0};
  }
  if (cause == AbortCause::kCapacity && params_.capacity_serializes) {
    return {PolicyAction::kSerialize, 0};
  }
  const uint32_t retries = ++SlotFor(tid).retries;
  if (retries > params_.max_retries) {
    return {PolicyAction::kSerialize, 0};
  }
  if (params_.base_cycles == 0) {
    return {PolicyAction::kRetryNow, 0};
  }
  // Stride 0 shares slot 0's generator; SlotFor(tid) already covers slot 0.
  asfcommon::Rng& rng = slots_[params_.seed_stride == 0 ? 0 : tid].rng;
  const uint32_t shift = retries < params_.shift_cap ? retries : params_.shift_cap;
  const uint64_t max_wait = params_.base_cycles << shift;
  return {PolicyAction::kBackoffRetry, rng.NextInRange(max_wait / 2, max_wait)};
}

namespace {

// Applies one "key=value" option of an exp-backoff spec.
bool ApplyOption(const std::string& item, ExpBackoffParams* p, std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = message;
    }
    return false;
  };
  const size_t eq = item.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
    return fail("malformed policy option '" + item + "'");
  }
  char* end = nullptr;
  const uint64_t value = strtoull(item.c_str() + eq + 1, &end, 10);
  if (end == nullptr || *end != '\0') {
    return fail("bad policy option value in '" + item + "'");
  }
  const std::string key = item.substr(0, eq);
  if (key == "base") {
    p->base_cycles = value;
  } else if (key == "cap") {
    p->shift_cap = static_cast<uint32_t>(value);
  } else if (key == "retries") {
    p->max_retries = static_cast<uint32_t>(value);
  } else if (key == "capacity-serial") {
    p->capacity_serializes = value != 0;
  } else {
    return fail("unknown policy option '" + key + "'");
  }
  return true;
}

}  // namespace

std::optional<ExpBackoffParams> MakeContentionPolicy(const std::string& spec,
                                                     std::string* error) {
  const size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const std::string opts = colon == std::string::npos ? "" : spec.substr(colon + 1);

  if (name == "no-backoff") {
    if (!opts.empty()) {
      if (error != nullptr) {
        *error = "'no-backoff' takes no options";
      }
      return std::nullopt;
    }
    return kNoBackoff;
  }
  if (name != "exp-backoff") {
    if (error != nullptr) {
      *error = "unknown contention policy '" + name + "'";
    }
    return std::nullopt;
  }
  ExpBackoffParams p;
  size_t pos = 0;
  while (pos < opts.size()) {
    size_t comma = opts.find(',', pos);
    if (comma == std::string::npos) {
      comma = opts.size();
    }
    if (!ApplyOption(opts.substr(pos, comma - pos), &p, error)) {
      return std::nullopt;
    }
    pos = comma + 1;
  }
  return p;
}

}  // namespace asftm
