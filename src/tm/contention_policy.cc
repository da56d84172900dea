// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
#include "src/tm/contention_policy.h"

#include <cstdlib>
#include <functional>
#include <vector>

#include "src/common/defs.h"
#include "src/common/random.h"

namespace asftm {

using asfcommon::AbortCause;

namespace {

// Causes where waiting longer cannot make the retry succeed: the condition
// (working set too big, forbidden instruction, system call in the body)
// recurs on every attempt.
bool IsHopelessCause(AbortCause cause) {
  return cause == AbortCause::kCapacity || cause == AbortCause::kDisallowed ||
         cause == AbortCause::kSyscall;
}

// Per-thread state shared by the counted-retry policies: a lazily grown
// dense array indexed by tid, each slot carrying the block's retry count and
// a deterministically seeded jitter RNG (seed + tid * stride; stride 0 keeps
// one shared generator, slot 0).
class PerThreadState {
 public:
  PerThreadState(uint64_t seed, uint64_t stride) : seed_(seed), stride_(stride) {
    // Pre-size every realistic tid (threads <= cores <= 8 in all modeled
    // configurations) so the accessors below never reallocate: a reference
    // returned by RetriesFor() stays valid across a later For() call.
    Grow(kPreSize);
  }

  struct Slot {
    uint32_t retries = 0;
    asfcommon::Rng rng;
  };

  Slot& For(uint32_t tid) {
    uint32_t slot = stride_ == 0 ? 0 : tid;
    if (slot >= slots_.size()) {
      Grow(slot + 1);
    }
    return slots_[slot];
  }

  // The retry counter is per thread even when the RNG is shared.
  uint32_t& RetriesFor(uint32_t tid) {
    if (tid >= retries_.size()) {
      Grow(tid + 1);
    }
    return retries_[tid];
  }

 private:
  static constexpr uint32_t kPreSize = 64;

  void Grow(size_t n) {
    while (slots_.size() < n) {
      uint32_t i = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
      slots_.back().rng.Seed(seed_ + i * stride_);
    }
    if (retries_.size() < n) {
      retries_.resize(n, 0);
    }
  }

  const uint64_t seed_;
  const uint64_t stride_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> retries_;
};

uint64_t JitteredWait(asfcommon::Rng& rng, uint64_t base, uint32_t shift_cap, uint32_t retry) {
  uint32_t shift = retry < shift_cap ? retry : shift_cap;
  uint64_t max_wait = base << shift;
  return rng.NextInRange(max_wait / 2, max_wait);
}

class ExpBackoffPolicy final : public ContentionPolicy {
 public:
  explicit ExpBackoffPolicy(const ExpBackoffParams& params)
      : params_(params), state_(params.seed, params.seed_stride) {}

  std::string name() const override { return "exp-backoff"; }

  void OnBlockStart(uint32_t tid, uint32_t) override { state_.RetriesFor(tid) = 0; }

  PolicyDecision OnAbort(uint32_t tid, AbortCause cause, uint32_t) override {
    if (IsTransientCause(cause)) {
      return {PolicyAction::kRetryNow, 0};
    }
    if (cause == AbortCause::kCapacity && params_.capacity_serializes) {
      return {PolicyAction::kSerialize, 0};
    }
    uint32_t& retries = state_.RetriesFor(tid);
    if (++retries > params_.max_retries) {
      return {PolicyAction::kSerialize, 0};
    }
    uint64_t wait =
        JitteredWait(state_.For(tid).rng, params_.base_cycles, params_.shift_cap, retries);
    return {PolicyAction::kBackoffRetry, wait};
  }

 private:
  const ExpBackoffParams params_;
  PerThreadState state_;
};

class CappedRetryPolicy final : public ContentionPolicy {
 public:
  explicit CappedRetryPolicy(uint32_t max_retries) : max_retries_(max_retries), state_(0, 1) {}

  std::string name() const override { return "capped-retry"; }

  void OnBlockStart(uint32_t tid, uint32_t) override { state_.RetriesFor(tid) = 0; }

  PolicyDecision OnAbort(uint32_t tid, AbortCause cause, uint32_t) override {
    if (IsTransientCause(cause)) {
      return {PolicyAction::kRetryNow, 0};
    }
    uint32_t& retries = state_.RetriesFor(tid);
    if (++retries > max_retries_) {
      return {PolicyAction::kSerialize, 0};
    }
    return {PolicyAction::kRetryNow, 0};
  }

 private:
  const uint32_t max_retries_;
  PerThreadState state_;
};

class ImmediateSerializePolicy final : public ContentionPolicy {
 public:
  std::string name() const override { return "serialize"; }
  void OnBlockStart(uint32_t, uint32_t) override {}
  PolicyDecision OnAbort(uint32_t, AbortCause cause, uint32_t) override {
    if (IsTransientCause(cause)) {
      return {PolicyAction::kRetryNow, 0};
    }
    return {PolicyAction::kSerialize, 0};
  }
};

class NoBackoffPolicy final : public ContentionPolicy {
 public:
  std::string name() const override { return "no-backoff"; }
  void OnBlockStart(uint32_t, uint32_t) override {}
  PolicyDecision OnAbort(uint32_t, AbortCause, uint32_t) override {
    return {PolicyAction::kRetryNow, 0};
  }
};

class AdaptivePolicy final : public ContentionPolicy {
 public:
  explicit AdaptivePolicy(const AdaptivePolicyParams& params)
      : params_(params), state_(params.seed, params.seed_stride) {}

  std::string name() const override { return "adaptive"; }

  void OnBlockStart(uint32_t tid, uint32_t site) override {
    state_.RetriesFor(tid) = 0;
    EnsureSite(site);
    EnsureThread(tid);
    threads_[tid] = 0;  // hopeless_this_block
  }

  PolicyDecision OnAbort(uint32_t tid, AbortCause cause, uint32_t site) override {
    if (IsTransientCause(cause)) {
      return {PolicyAction::kRetryNow, 0};
    }
    EnsureSite(site);
    EnsureThread(tid);
    // The learned abort-mix window is per SITE: what this atomic block's
    // working set keeps doing (overflowing, syscalling) is a property of the
    // block, not of whichever thread happens to run it — so the lesson
    // transfers across threads, and two different blocks on one thread adapt
    // independently (pinned by contention_policy_test).
    SiteWindow& w = sites_[site];
    Record(w, cause);

    // A hopeless cause recurring within one block means the condition is
    // structural, not timing: serialize on the second occurrence. The
    // recurrence counter is per thread — it scopes the *current* block.
    if (IsHopelessCause(cause) && ++threads_[tid] >= 2) {
      return {PolicyAction::kSerialize, 0};
    }

    // Budget shrinks as hopeless causes dominate the recent window: with a
    // contention-only mix it equals max_retries, with a hopeless-only mix it
    // bottoms out at min_retries.
    uint32_t filled = w.count < params_.window ? w.count : params_.window;
    uint32_t hopeless = w.hopeless_in_window;
    uint32_t budget = params_.max_retries;
    if (filled > 0) {
      uint32_t span = params_.max_retries - params_.min_retries;
      budget = params_.max_retries - (span * hopeless) / filled;
    }
    uint32_t& retries = state_.RetriesFor(tid);
    if (++retries > budget) {
      return {PolicyAction::kSerialize, 0};
    }
    uint64_t wait =
        JitteredWait(state_.For(tid).rng, params_.base_cycles, params_.shift_cap, retries);
    return {PolicyAction::kBackoffRetry, wait};
  }

 private:
  struct SiteWindow {
    std::vector<uint8_t> hopeless;  // Ring buffer of is-hopeless flags.
    uint32_t next = 0;
    uint32_t count = 0;              // Total causes recorded (saturating use).
    uint32_t hopeless_in_window = 0;
  };

  void EnsureSite(uint32_t site) {
    while (sites_.size() <= site) {
      sites_.emplace_back();
      sites_.back().hopeless.assign(params_.window, 0);
    }
  }

  void EnsureThread(uint32_t tid) {
    while (threads_.size() <= tid) {
      threads_.push_back(0);
    }
  }

  void Record(SiteWindow& w, AbortCause cause) {
    uint8_t flag = IsHopelessCause(cause) ? 1 : 0;
    if (w.count >= params_.window) {
      w.hopeless_in_window -= w.hopeless[w.next];
    }
    w.hopeless[w.next] = flag;
    w.hopeless_in_window += flag;
    w.next = (w.next + 1) % params_.window;
    if (w.count < UINT32_MAX) {
      ++w.count;
    }
  }

  const AdaptivePolicyParams params_;
  PerThreadState state_;
  std::vector<SiteWindow> sites_;
  std::vector<uint32_t> threads_;  // Per-thread hopeless-this-block counter.
};

// Karma priority policy: losing raises priority. See KarmaPolicyParams.
class KarmaPolicy final : public ContentionPolicy {
 public:
  explicit KarmaPolicy(const KarmaPolicyParams& params)
      : params_(params), state_(params.seed, params.seed_stride) {}

  std::string name() const override { return "karma"; }

  // Karma is per block: a commit ended the previous block, so the priority
  // it accumulated has been spent.
  void OnBlockStart(uint32_t tid, uint32_t) override { state_.RetriesFor(tid) = 0; }

  PolicyDecision OnAbort(uint32_t tid, AbortCause cause, uint32_t) override {
    if (IsTransientCause(cause)) {
      return {PolicyAction::kRetryNow, 0};
    }
    if (IsHopelessCause(cause)) {
      // Waiting cannot make these succeed; no priority game to play.
      return {PolicyAction::kSerialize, 0};
    }
    uint32_t& karma = state_.RetriesFor(tid);
    if (++karma >= params_.serialize_threshold) {
      // Priority exhausted the optimistic path: claim the fallback, whose
      // execution an adversary cannot abort.
      return {PolicyAction::kSerialize, 0};
    }
    // Backoff shrinks as karma grows: the wait exponent is the remaining
    // distance to the threshold, so a block that keeps losing yields less
    // and less before it escalates.
    const uint32_t deficit = params_.serialize_threshold - karma;
    uint64_t wait =
        JitteredWait(state_.For(tid).rng, params_.base_cycles, params_.shift_cap, deficit);
    return {PolicyAction::kBackoffRetry, wait};
  }

 private:
  const KarmaPolicyParams params_;
  PerThreadState state_;
};

// Greedy timestamp policy: oldest active block wins. See GreedyPolicyParams.
class GreedyPolicy final : public ContentionPolicy {
 public:
  explicit GreedyPolicy(const GreedyPolicyParams& params)
      : params_(params), state_(params.seed, params.seed_stride) {}

  std::string name() const override { return "greedy"; }

  void OnBlockStart(uint32_t tid, uint32_t) override {
    state_.RetriesFor(tid) = 0;
    while (stamps_.size() <= tid) {
      stamps_.push_back(0);
    }
    stamps_[tid] = ++clock_;
  }

  PolicyDecision OnAbort(uint32_t tid, AbortCause cause, uint32_t) override {
    if (IsTransientCause(cause)) {
      return {PolicyAction::kRetryNow, 0};
    }
    if (IsHopelessCause(cause)) {
      return {PolicyAction::kSerialize, 0};
    }
    // The oldest active stamp has priority: its holder stops gambling and
    // takes the unconditional fallback. (Heuristic: a committed block's
    // stamp stays registered until that thread's next block start — exact
    // whenever all threads keep running blocks.)
    bool oldest = true;
    for (size_t i = 0; i < stamps_.size(); ++i) {
      if (stamps_[i] != 0 && stamps_[i] < stamps_[tid]) {
        oldest = false;
        break;
      }
    }
    if (oldest) {
      return {PolicyAction::kSerialize, 0};
    }
    uint32_t& retries = state_.RetriesFor(tid);
    if (++retries > params_.max_retries) {
      return {PolicyAction::kSerialize, 0};
    }
    uint64_t wait =
        JitteredWait(state_.For(tid).rng, params_.base_cycles, params_.shift_cap, retries);
    return {PolicyAction::kBackoffRetry, wait};
  }

 private:
  const GreedyPolicyParams params_;
  PerThreadState state_;
  std::vector<uint64_t> stamps_;  // 0 = thread never started a block.
  uint64_t clock_ = 0;
};

// "key=value,key=value" option parsing for the factory specs.
bool ParseSpecOptions(const std::string& opts,
                      const std::function<bool(const std::string&, uint64_t)>& apply,
                      std::string* error) {
  size_t pos = 0;
  while (pos < opts.size()) {
    size_t comma = opts.find(',', pos);
    std::string item = opts.substr(pos, comma == std::string::npos ? std::string::npos
                                                                   : comma - pos);
    pos = comma == std::string::npos ? opts.size() : comma + 1;
    size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      if (error != nullptr) {
        *error = "malformed policy option '" + item + "'";
      }
      return false;
    }
    char* end = nullptr;
    uint64_t value = strtoull(item.c_str() + eq + 1, &end, 10);
    if (end == nullptr || *end != '\0') {
      if (error != nullptr) {
        *error = "bad policy option value in '" + item + "'";
      }
      return false;
    }
    if (!apply(item.substr(0, eq), value)) {
      if (error != nullptr) {
        *error = "unknown policy option '" + item.substr(0, eq) + "'";
      }
      return false;
    }
  }
  return true;
}

}  // namespace

std::shared_ptr<ContentionPolicy> MakeExpBackoffPolicy(const ExpBackoffParams& params) {
  return std::make_shared<ExpBackoffPolicy>(params);
}

std::shared_ptr<ContentionPolicy> MakeCappedRetryPolicy(uint32_t max_retries, uint64_t) {
  return std::make_shared<CappedRetryPolicy>(max_retries);
}

std::shared_ptr<ContentionPolicy> MakeImmediateSerializePolicy() {
  return std::make_shared<ImmediateSerializePolicy>();
}

std::shared_ptr<ContentionPolicy> MakeNoBackoffPolicy() {
  return std::make_shared<NoBackoffPolicy>();
}

std::shared_ptr<ContentionPolicy> MakeAdaptivePolicy(const AdaptivePolicyParams& params) {
  return std::make_shared<AdaptivePolicy>(params);
}

std::shared_ptr<ContentionPolicy> MakeKarmaPolicy(const KarmaPolicyParams& params) {
  return std::make_shared<KarmaPolicy>(params);
}

std::shared_ptr<ContentionPolicy> MakeGreedyPolicy(const GreedyPolicyParams& params) {
  return std::make_shared<GreedyPolicy>(params);
}

std::shared_ptr<ContentionPolicy> MakeContentionPolicy(const std::string& spec, uint64_t seed,
                                                       std::string* error) {
  size_t colon = spec.find(':');
  std::string name = spec.substr(0, colon);
  std::string opts = colon == std::string::npos ? "" : spec.substr(colon + 1);

  if (name == "exp-backoff") {
    ExpBackoffParams p;
    p.seed = seed;
    bool ok = ParseSpecOptions(
        opts,
        [&](const std::string& key, uint64_t value) {
          if (key == "base") {
            p.base_cycles = value;
          } else if (key == "cap") {
            p.shift_cap = static_cast<uint32_t>(value);
          } else if (key == "retries") {
            p.max_retries = static_cast<uint32_t>(value);
          } else if (key == "capacity-serial") {
            p.capacity_serializes = value != 0;
          } else {
            return false;
          }
          return true;
        },
        error);
    return ok ? MakeExpBackoffPolicy(p) : nullptr;
  }
  if (name == "capped-retry") {
    uint32_t retries = 8;
    bool ok = ParseSpecOptions(
        opts,
        [&](const std::string& key, uint64_t value) {
          if (key == "retries") {
            retries = static_cast<uint32_t>(value);
            return true;
          }
          return false;
        },
        error);
    return ok ? MakeCappedRetryPolicy(retries) : nullptr;
  }
  if (name == "serialize") {
    if (!opts.empty()) {
      if (error != nullptr) {
        *error = "'serialize' takes no options";
      }
      return nullptr;
    }
    return MakeImmediateSerializePolicy();
  }
  if (name == "no-backoff") {
    if (!opts.empty()) {
      if (error != nullptr) {
        *error = "'no-backoff' takes no options";
      }
      return nullptr;
    }
    return MakeNoBackoffPolicy();
  }
  if (name == "adaptive") {
    AdaptivePolicyParams p;
    p.seed = seed;
    bool ok = ParseSpecOptions(
        opts,
        [&](const std::string& key, uint64_t value) {
          if (key == "window") {
            p.window = static_cast<uint32_t>(value);
          } else if (key == "retries") {
            p.max_retries = static_cast<uint32_t>(value);
          } else if (key == "base") {
            p.base_cycles = value;
          } else {
            return false;
          }
          return true;
        },
        error);
    if (ok && p.window == 0) {
      if (error != nullptr) {
        *error = "adaptive window must be >= 1";
      }
      return nullptr;
    }
    return ok ? MakeAdaptivePolicy(p) : nullptr;
  }
  if (name == "karma") {
    KarmaPolicyParams p;
    p.seed = seed;
    bool ok = ParseSpecOptions(
        opts,
        [&](const std::string& key, uint64_t value) {
          if (key == "threshold") {
            p.serialize_threshold = static_cast<uint32_t>(value);
          } else if (key == "base") {
            p.base_cycles = value;
          } else if (key == "cap") {
            p.shift_cap = static_cast<uint32_t>(value);
          } else {
            return false;
          }
          return true;
        },
        error);
    if (ok && p.serialize_threshold == 0) {
      if (error != nullptr) {
        *error = "karma threshold must be >= 1";
      }
      return nullptr;
    }
    return ok ? MakeKarmaPolicy(p) : nullptr;
  }
  if (name == "greedy") {
    GreedyPolicyParams p;
    p.seed = seed;
    bool ok = ParseSpecOptions(
        opts,
        [&](const std::string& key, uint64_t value) {
          if (key == "retries") {
            p.max_retries = static_cast<uint32_t>(value);
          } else if (key == "base") {
            p.base_cycles = value;
          } else if (key == "cap") {
            p.shift_cap = static_cast<uint32_t>(value);
          } else {
            return false;
          }
          return true;
        },
        error);
    return ok ? MakeGreedyPolicy(p) : nullptr;
  }
  if (error != nullptr) {
    *error = "unknown contention policy '" + name + "'";
  }
  return nullptr;
}

const std::vector<std::string>& ContentionPolicyNames() {
  static const std::vector<std::string> kNames = {"exp-backoff", "capped-retry", "serialize",
                                                  "no-backoff", "adaptive", "karma", "greedy"};
  return kNames;
}

}  // namespace asftm
