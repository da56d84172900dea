// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Pins the lifecycle event stream of every TM runtime: a contended intset
// run per runtime, digested over every TxEvent field plus the measured
// TotalStats. Any change to a runtime's retry loop, fallback, backoff,
// attempt accounting or event payloads moves a digest. When a change is
// meant to move one, re-record the constant and say why in the commit.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "src/common/digest.h"
#include "src/harness/experiment.h"
#include "src/obs/tx_event.h"

namespace harness {
namespace {

using asfobs::TxEvent;
using asfobs::TxEventKind;
using asfobs::TxMode;

// FNV-1a over every field of every event the machine's sink receives.
class DigestSink final : public asfobs::TxEventSink {
 public:
  void OnTxEvent(const TxEvent& ev) override {
    Mix(ev.cycle);
    Mix(ev.core);
    Mix(static_cast<uint64_t>(ev.kind));
    Mix(static_cast<uint64_t>(ev.mode));
    Mix(static_cast<uint64_t>(ev.cause));
    Mix(ev.attempt);
    Mix(ev.retry);
    Mix(ev.arg0);
    Mix(ev.arg1);
    if (ev.kind == TxEventKind::kFallbackTransition) {
      ++transitions_to[static_cast<size_t>(ev.mode)];
    }
    ++events;
  }

  void Mix(uint64_t v) { hash = asfcommon::FnvMix(hash, v); }

  void MixStats(const asftm::TxStats& s) {
    for (uint64_t v : {s.tx_started, s.hw_attempts, s.stm_attempts, s.serial_attempts,
                       s.hw_commits, s.serial_commits, s.stm_commits, s.seq_commits,
                       s.backoff_cycles}) {
      Mix(v);
    }
    for (uint64_t v : s.aborts) {
      Mix(v);
    }
  }

  uint64_t hash = asfcommon::kFnvOffset;
  uint64_t events = 0;
  std::array<uint64_t, static_cast<size_t>(TxMode::kNumModes)> transitions_to{};
};

struct PinRun {
  uint64_t digest = 0;
  uint64_t events = 0;
  DigestSink sink;
  IntsetResult result;
};

// A contended linked list on LLB-8: small enough to run in milliseconds,
// big enough that every speculating runtime aborts, backs off and takes its
// fallback.
void RunPinned(RuntimeKind runtime, uint32_t threads, PinRun* out) {
  IntsetConfig cfg;
  cfg.structure = "list";
  cfg.key_range = 64;
  cfg.update_pct = 50;
  cfg.threads = threads;
  cfg.ops_per_thread = 120;
  cfg.runtime = runtime;
  cfg.variant = asf::AsfVariant::Llb8();
  cfg.seed = 3;
  cfg.obs.tx_sink = &out->sink;
  out->result = RunIntset(cfg);
  ASSERT_TRUE(out->result.invariant_violation.empty()) << out->result.invariant_violation;
  out->sink.MixStats(out->result.tm);
  out->digest = out->sink.hash;
  out->events = out->sink.events;
}

void ExpectPinned(const PinRun& r, uint64_t want) {
  EXPECT_EQ(r.digest, want) << std::hex << "digest 0x" << r.digest << std::dec << " over "
                            << r.events << " events";
}

TEST(TmEventPin, AsfTm) {
  PinRun r;
  RunPinned(RuntimeKind::kAsfTm, 4, &r);
  EXPECT_GT(r.result.tm.backoff_cycles, 0u);
  EXPECT_GT(r.result.tm.serial_commits, 0u);
  ExpectPinned(r, 0xE89753A9987CB490ull);
}

TEST(TmEventPin, TinyStm) {
  PinRun r;
  RunPinned(RuntimeKind::kTinyStm, 4, &r);
  EXPECT_GT(r.result.tm.backoff_cycles, 0u);
  ExpectPinned(r, 0x39ACF0DA2E97F980ull);
}

TEST(TmEventPin, Sequential) {
  PinRun r;
  RunPinned(RuntimeKind::kSequential, 1, &r);
  ExpectPinned(r, 0xB785287D55942358ull);
}

TEST(TmEventPin, GlobalLock) {
  PinRun r;
  RunPinned(RuntimeKind::kGlobalLock, 4, &r);
  ExpectPinned(r, 0x60F9A47EDBEAF263ull);
}

TEST(TmEventPin, PhasedTmOnLlb8) {
  PinRun r;
  RunPinned(RuntimeKind::kPhasedTm, 4, &r);
  // Both phase transitions occur.
  EXPECT_GT(r.sink.transitions_to[static_cast<size_t>(TxMode::kStm)], 0u);
  EXPECT_GT(r.sink.transitions_to[static_cast<size_t>(TxMode::kHardware)], 0u);
  ExpectPinned(r, 0x8689C4772FDF49B2ull);
}

TEST(TmEventPin, LockElisionTakesTheRealLock) {
  PinRun r;
  RunPinned(RuntimeKind::kLockElision, 4, &r);
  EXPECT_GT(r.sink.transitions_to[static_cast<size_t>(TxMode::kLock)], 0u);
  EXPECT_GT(r.result.tm.serial_commits, 0u);
  EXPECT_GT(r.result.tm.hw_commits, 0u);
  ExpectPinned(r, 0xE8403BCBC4ED1BDBull);
}

}  // namespace
}  // namespace harness
