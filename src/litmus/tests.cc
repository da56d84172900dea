// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// The litmus-test definitions. Each test is a tiny two-thread program with a
// per-runtime allowed-outcome set; see docs/ROBUSTNESS.md ("Litmus
// semantics") for the outcome tables and the reasoning behind them.
//
// Runtime classification used below:
//   * Strongly isolated — ASF-TM, lock elision, PhasedTM (hardware phase):
//     plain accesses run requester-wins conflict resolution against
//     speculative regions, so a plain reader can never observe a partial
//     transaction and a plain writer can never be swallowed by one.
//     (PhasedTM's software phase is weakly isolated, but these programs
//     cannot reach it: flipping phases takes more contention aborts than the
//     two-thread bodies can generate.)
//   * Weakly isolated — TinySTM write-through: transactional writes land in
//     memory at encounter time and roll back via an undo log, so plain
//     readers can observe speculative state and plain writes race the undo.
//   * Mutual exclusion only — global lock: atomic blocks exclude each other
//     but plain accesses bypass the lock entirely.
//   * No isolation — sequential: bare unsynchronized execution (meaningful
//     as the degenerate baseline; its allowed sets are the full race space).
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/digest.h"
#include "src/litmus/litmus.h"

namespace litmus {
namespace {

using asfcommon::AbortCause;
using asfcommon::FnvMix;
using asfcommon::kFnvOffset;
using asfsim::AccessKind;
using asfsim::SimThread;
using asfsim::Task;
using asftm::Tx;
using asftm::TxStats;
using harness::RuntimeKind;

// One shared variable per cache line: litmus semantics must come from the
// protocol, not from false sharing merging two variables into one conflict.
struct alignas(asfcommon::kCacheLineBytes) Cell {
  uint64_t v = 0;
};

bool StronglyIsolated(RuntimeKind k) {
  return k == RuntimeKind::kAsfTm || k == RuntimeKind::kLockElision ||
         k == RuntimeKind::kPhasedTm;
}

// On an ASF1 static-set variant every line must be in the protected set
// before the first transactional store; a line first touched afterwards
// aborts the attempt with kCapacity (src/asf/asf_context.cc). A multi-line
// writer whose stores arrive one by one therefore fails *deterministically*
// — not schedule-dependently — and its runtime demotes it to the fallback
// path: serial-irrevocable mode for ASF-TM/PhasedTM, the real lock for
// LockElision. Neither fallback runs conflict resolution against plain
// (unannotated) accesses, so inside the fallback window the execution is
// only weakly isolated even though the speculative path is strong. Allowed
// sets for tests whose transactions exceed the ASF1 static set must widen
// accordingly.
bool FallbackWeaklyIsolated(RuntimeKind k, const asf::AsfVariant& v) {
  return v.asf1_static_set && StronglyIsolated(k);
}

// Shared scaffolding: per-thread progress counters (the explorer's state
// signature needs a program-counter proxy) and arena cell allocation.
class ExecBase : public Execution {
 public:
  ExecBase(asf::Machine& m, asftm::TmRuntime& rt, uint32_t cells) : rt_(rt) {
    cells_ = m.arena().NewArray<Cell>(cells);
    m.mem().PretouchPages(reinterpret_cast<uint64_t>(cells_), cells * sizeof(Cell));
  }

 protected:
  void Step(uint32_t tid) { ++pc_[tid]; }

  // Plain (unannotated) load/store helpers. The load binds its value at
  // issue time (SimThread::Load): litmus outcomes must reflect the value the
  // access resolved against, not whatever a racing speculative store left in
  // host memory by the time the coroutine resumes.
  Task<uint64_t> PlainLoad(SimThread& t, Cell& c) {
    co_return co_await t.Load(AccessKind::kLoad, &c.v, 8);
  }
  Task<void> PlainStore(SimThread& t, Cell& c, uint64_t v) {
    co_await t.Store(AccessKind::kStore, &c.v, 8, v);
  }

  uint64_t BaseHash(uint32_t cells) const {
    uint64_t h = kFnvOffset;
    for (uint32_t i = 0; i < cells; ++i) {
      h = FnvMix(h, cells_[i].v);
    }
    for (uint64_t pc : pc_) {
      h = FnvMix(h, pc);
    }
    return h;
  }

  asftm::TmRuntime& rt_;
  Cell* cells_ = nullptr;
  uint64_t pc_[8] = {};
};

// --- publication -------------------------------------------------------------
// T0: data = 1 (plain);  atomic { flag = 1 }
// T1: atomic { f = flag };  if (f) d = data (plain)
// f == 1 must imply d == 1 under every runtime: the plain publication store
// precedes the flag transaction in T0's program order and the simulated
// memory system is sequentially consistent per access.
class PublicationExec : public ExecBase {
 public:
  using ExecBase::ExecBase;

  Task<void> Body(SimThread& t, uint32_t tid) override {
    Cell& data = cells_[0];
    Cell& flag = cells_[1];
    if (tid == 0) {
      co_await PlainStore(t, data, 1);
      Step(0);
      co_await rt_.Atomic(t, [&](Tx& tx) -> Task<void> {
        co_await tx.Write<uint64_t>(&flag.v, 1);
      });
      Step(0);
    } else {
      co_await rt_.Atomic(t, [&](Tx& tx) -> Task<void> {
        f_ = co_await tx.Read<uint64_t>(&flag.v);
      });
      Step(1);
      if (f_ != 0) {
        d_ = co_await PlainLoad(t, data);
      }
      Step(1);
    }
  }

  uint64_t StateHash() const override { return FnvMix(FnvMix(BaseHash(2), f_), d_); }

  Outcome Read() const override {
    std::ostringstream os;
    os << "f=" << f_ << " d=" << (f_ != 0 ? std::to_string(d_) : "-");
    return os.str();
  }

 private:
  uint64_t f_ = 0;
  uint64_t d_ = 0;
};

class PublicationTest : public LitmusTest {
 public:
  std::string name() const override { return "publication"; }
  std::string description() const override {
    return "plain store published by a transactional flag write";
  }
  uint32_t threads() const override { return 2; }
  std::unique_ptr<Execution> Prepare(asf::Machine& m, asftm::TmRuntime& rt) const override {
    return std::make_unique<PublicationExec>(m, rt, 2);
  }
  bool Allowed(RuntimeKind kind, const asf::AsfVariant& variant,
               const Outcome& o) const override {
    return o == "f=0 d=-" || o == "f=1 d=1";
  }
  std::string AllowedSummary(RuntimeKind kind,
                             const asf::AsfVariant& variant) const override {
    return "f=0 d=-, f=1 d=1";
  }
};

// --- dirty-read (strong isolation) ------------------------------------------
// T0: atomic { x = 1; y = 1 }
// T1: r1 = x (plain);  r2 = y (plain)
// The partial state r1=1 r2=0 is a dirty read of a half-done transaction:
// forbidden under strong isolation (the plain load of a protected line
// aborts the writer first), observable under write-through TinySTM, under
// the global lock (plain readers bypass it), and sequentially.
class DirtyReadExec : public ExecBase {
 public:
  using ExecBase::ExecBase;

  Task<void> Body(SimThread& t, uint32_t tid) override {
    Cell& x = cells_[0];
    Cell& y = cells_[1];
    if (tid == 0) {
      co_await rt_.Atomic(t, [&](Tx& tx) -> Task<void> {
        co_await tx.Write<uint64_t>(&x.v, 1);
        co_await tx.Write<uint64_t>(&y.v, 1);
      });
      Step(0);
    } else {
      r1_ = co_await PlainLoad(t, x);
      Step(1);
      r2_ = co_await PlainLoad(t, y);
      Step(1);
    }
  }

  uint64_t StateHash() const override { return FnvMix(FnvMix(BaseHash(2), r1_), r2_); }

  Outcome Read() const override {
    std::ostringstream os;
    os << "r1=" << r1_ << " r2=" << r2_;
    return os.str();
  }

 private:
  uint64_t r1_ = 0;
  uint64_t r2_ = 0;
};

class DirtyReadTest : public LitmusTest {
 public:
  std::string name() const override { return "dirty-read"; }
  std::string description() const override {
    return "plain reader vs. a two-store transaction (strong isolation)";
  }
  uint32_t threads() const override { return 2; }
  std::unique_ptr<Execution> Prepare(asf::Machine& m, asftm::TmRuntime& rt) const override {
    return std::make_unique<DirtyReadExec>(m, rt, 2);
  }
  bool Allowed(RuntimeKind kind, const asf::AsfVariant& variant,
               const Outcome& o) const override {
    if (o == "r1=1 r2=0") {
      // The dirty read itself: reachable wherever the two-store transaction
      // runs without strong isolation — always on the weakly isolated
      // runtimes, and on the HTM runtimes whenever ASF1's static-set rule
      // rejects the second store and demotes the writer to its fallback.
      return !StronglyIsolated(kind) || FallbackWeaklyIsolated(kind, variant);
    }
    return o == "r1=0 r2=0" || o == "r1=0 r2=1" || o == "r1=1 r2=1";
  }
  std::string AllowedSummary(RuntimeKind kind,
                             const asf::AsfVariant& variant) const override {
    return StronglyIsolated(kind) && !FallbackWeaklyIsolated(kind, variant)
               ? "r1 r2 in {00, 01, 11}"
               : "r1 r2 in {00, 01, 10, 11}";
  }
};

// --- mixed-annotation (lost plain store) ------------------------------------
// T0: atomic { r = x; x = r + 1 }
// T1: x = 100 (plain)
// Under strong isolation the plain store either lands before the read
// (x = 101), or conflicts the region away and lands first after the retry
// (x = 101), or overwrites the committed increment (x = 100); it is never
// lost. TinySTM's plain store does not touch the orec, so the transaction
// can commit right over it: x = 1.
class MixedAnnotationExec : public ExecBase {
 public:
  using ExecBase::ExecBase;

  Task<void> Body(SimThread& t, uint32_t tid) override {
    Cell& x = cells_[0];
    if (tid == 0) {
      co_await rt_.Atomic(t, [&](Tx& tx) -> Task<void> {
        uint64_t r = co_await tx.Read<uint64_t>(&x.v);
        co_await tx.Write<uint64_t>(&x.v, r + 1);
      });
      Step(0);
    } else {
      co_await PlainStore(t, x, 100);
      Step(1);
    }
  }

  uint64_t StateHash() const override { return BaseHash(1); }

  Outcome Read() const override {
    std::ostringstream os;
    os << "x=" << cells_[0].v;
    return os.str();
  }
};

class MixedAnnotationTest : public LitmusTest {
 public:
  std::string name() const override { return "mixed-annotation"; }
  std::string description() const override {
    return "plain store racing a transactional read-modify-write";
  }
  uint32_t threads() const override { return 2; }
  std::unique_ptr<Execution> Prepare(asf::Machine& m, asftm::TmRuntime& rt) const override {
    return std::make_unique<MixedAnnotationExec>(m, rt, 1);
  }
  bool Allowed(RuntimeKind kind, const asf::AsfVariant& variant,
               const Outcome& o) const override {
    if (o == "x=1") {
      // The lost plain store. Unchanged under ASF1: the RMW touches a
      // single line whose transactional read precedes the store, so it fits
      // the static set and never demotes to the fallback path.
      return !StronglyIsolated(kind);
    }
    return o == "x=100" || o == "x=101";
  }
  std::string AllowedSummary(RuntimeKind kind,
                             const asf::AsfVariant& variant) const override {
    return StronglyIsolated(kind) ? "x in {100, 101}" : "x in {1, 100, 101}";
  }
};

// --- write-skew --------------------------------------------------------------
// T0: atomic { if (y == 0) x = 1 }
// T1: atomic { if (x == 0) y = 1 }
// x = y = 1 requires both transactions to read before either writes — a
// non-serializable schedule. Every conflict-serializable runtime (all TMs
// track reads; the lock excludes blocks outright) forbids it; only the
// unsynchronized sequential baseline can produce it.
class WriteSkewExec : public ExecBase {
 public:
  using ExecBase::ExecBase;

  Task<void> Body(SimThread& t, uint32_t tid) override {
    Cell& x = cells_[0];
    Cell& y = cells_[1];
    if (tid == 0) {
      co_await rt_.Atomic(t, [&](Tx& tx) -> Task<void> {
        if (co_await tx.Read<uint64_t>(&y.v) == 0) {
          co_await tx.Write<uint64_t>(&x.v, 1);
        }
      });
    } else {
      co_await rt_.Atomic(t, [&](Tx& tx) -> Task<void> {
        if (co_await tx.Read<uint64_t>(&x.v) == 0) {
          co_await tx.Write<uint64_t>(&y.v, 1);
        }
      });
    }
    Step(tid);
  }

  uint64_t StateHash() const override { return BaseHash(2); }

  Outcome Read() const override {
    std::ostringstream os;
    os << "x=" << cells_[0].v << " y=" << cells_[1].v;
    return os.str();
  }
};

class WriteSkewTest : public LitmusTest {
 public:
  std::string name() const override { return "write-skew"; }
  std::string description() const override {
    return "guarded cross writes; x=y=1 demands a non-serializable schedule";
  }
  uint32_t threads() const override { return 2; }
  std::unique_ptr<Execution> Prepare(asf::Machine& m, asftm::TmRuntime& rt) const override {
    return std::make_unique<WriteSkewExec>(m, rt, 2);
  }
  bool Allowed(RuntimeKind kind, const asf::AsfVariant& variant,
               const Outcome& o) const override {
    if (o == "x=1 y=1") {
      return kind == RuntimeKind::kSequential;
    }
    return o == "x=1 y=0" || o == "x=0 y=1";
  }
  std::string AllowedSummary(RuntimeKind kind,
                             const asf::AsfVariant& variant) const override {
    return kind == RuntimeKind::kSequential ? "x y in {10, 01, 11}" : "x y in {10, 01}";
  }
};

// --- privatization -----------------------------------------------------------
// shared = 1, data = 0
// T0: atomic { shared = 0 };  data = 42 (plain — the object is now private)
// T1: atomic { if (shared == 1) data = 7 }
// Requester-wins runtimes and the global lock always end at data=42.
// Write-through TinySTM can lose the privatized plain store: T1's doomed
// transaction writes data in place, T0 privatizes and stores 42, then T1's
// commit-time validation fails and its undo log restores data to 0.
class PrivatizationExec : public ExecBase {
 public:
  PrivatizationExec(asf::Machine& m, asftm::TmRuntime& rt) : ExecBase(m, rt, 2) {
    cells_[0].v = 1;  // shared starts published; T0 un-publishes it.
  }

  Task<void> Body(SimThread& t, uint32_t tid) override {
    Cell& shared = cells_[0];
    Cell& data = cells_[1];
    if (tid == 0) {
      co_await rt_.Atomic(t, [&](Tx& tx) -> Task<void> {
        co_await tx.Write<uint64_t>(&shared.v, 0);
      });
      Step(0);
      co_await PlainStore(t, data, 42);
      Step(0);
    } else {
      co_await rt_.Atomic(t, [&](Tx& tx) -> Task<void> {
        if (co_await tx.Read<uint64_t>(&shared.v) == 1) {
          co_await tx.Write<uint64_t>(&data.v, 7);
        }
      });
      Step(1);
    }
  }

  uint64_t StateHash() const override { return BaseHash(2); }

  Outcome Read() const override {
    std::ostringstream os;
    os << "data=" << cells_[1].v;
    return os.str();
  }
};

class PrivatizationTest : public LitmusTest {
 public:
  std::string name() const override { return "privatization"; }
  std::string description() const override {
    return "plain write to a just-privatized object vs. a doomed transaction";
  }
  uint32_t threads() const override { return 2; }
  std::unique_ptr<Execution> Prepare(asf::Machine& m, asftm::TmRuntime& rt) const override {
    return std::make_unique<PrivatizationExec>(m, rt);
  }
  bool Allowed(RuntimeKind kind, const asf::AsfVariant& variant,
               const Outcome& o) const override {
    if (o == "data=42") {
      return true;
    }
    if (o == "data=0") {
      // The lost privatized store (doomed transaction's undo).
      return kind == RuntimeKind::kTinyStm;
    }
    if (o == "data=7") {
      // T1's write surviving past the privatization: no rollback exists.
      return kind == RuntimeKind::kSequential;
    }
    return false;
  }
  std::string AllowedSummary(RuntimeKind kind,
                             const asf::AsfVariant& variant) const override {
    if (kind == RuntimeKind::kTinyStm) {
      return "data in {42, 0}";
    }
    if (kind == RuntimeKind::kSequential) {
      return "data in {42, 7}";
    }
    return "data = 42";
  }
};

// --- serial-irrevocable ------------------------------------------------------
// Both threads increment x once, while every in-region access is hit by an
// injected contention abort (rate 1.0 — interleaving-independent). Hardware
// attempts can therefore never commit; the contention policy must escalate
// to the runtime's fallback, and the fallback must be unabortable: ASF-TM
// serial-irrevocable mode and the elision lock's real acquisition have no
// speculative region to snipe (region-only causes do not apply), and
// PhasedTM's software phase commits through the STM, which injection cannot
// abort either. Outcome: both increments land, always.
class SerialIrrevocableExec : public ExecBase {
 public:
  using ExecBase::ExecBase;

  Task<void> Body(SimThread& t, uint32_t tid) override {
    Cell& x = cells_[0];
    co_await rt_.Atomic(t, [&](Tx& tx) -> Task<void> {
      uint64_t r = co_await tx.Read<uint64_t>(&x.v);
      co_await tx.Write<uint64_t>(&x.v, r + 1);
    });
    Step(tid);
  }

  uint64_t StateHash() const override { return BaseHash(1); }

  Outcome Read() const override {
    std::ostringstream os;
    os << "x=" << cells_[0].v;
    return os.str();
  }
};

class SerialIrrevocableTest : public LitmusTest {
 public:
  std::string name() const override { return "serial-irrevocable"; }
  std::string description() const override {
    return "fallback execution survives wall-to-wall injected contention";
  }
  uint32_t threads() const override { return 2; }
  std::unique_ptr<Execution> Prepare(asf::Machine& m, asftm::TmRuntime& rt) const override {
    return std::make_unique<SerialIrrevocableExec>(m, rt, 1);
  }
  asffault::FaultSchedule Faults() const override {
    asffault::FaultSchedule sched;
    std::string err;
    ASF_CHECK_MSG(asffault::FaultSchedule::Parse("rate contention 1.0\n", &sched, &err),
                  err.c_str());
    return sched;
  }
  bool Allowed(RuntimeKind kind, const asf::AsfVariant& variant,
               const Outcome& o) const override {
    if (o == "x=1") {
      // Unsynchronized lost update; nothing to do with injection.
      return kind == RuntimeKind::kSequential;
    }
    return o == "x=2";
  }
  std::string AllowedSummary(RuntimeKind kind,
                             const asf::AsfVariant& variant) const override {
    return kind == RuntimeKind::kSequential ? "x in {1, 2}" : "x = 2";
  }
  std::string CheckStats(RuntimeKind kind, const TxStats& s) const override {
    std::ostringstream err;
    if (kind == RuntimeKind::kAsfTm || kind == RuntimeKind::kLockElision) {
      // The irrevocability pin: a serialized execution is never aborted.
      if (s.serial_attempts != s.serial_commits) {
        err << "serial attempts (" << s.serial_attempts << ") != serial commits ("
            << s.serial_commits << "): a serialized execution was aborted";
      } else if (s.hw_commits != 0) {
        err << "hw commit under rate-1.0 contention injection (hw_commits=" << s.hw_commits
            << ")";
      } else if (s.serial_commits == 0) {
        err << "no serialized execution ever ran (serial_commits=0)";
      }
    } else if (kind == RuntimeKind::kPhasedTm) {
      if (s.hw_commits != 0) {
        err << "hw commit under rate-1.0 contention injection (hw_commits=" << s.hw_commits
            << ")";
      } else if (s.stm_commits == 0) {
        err << "software phase never committed (stm_commits=0)";
      }
    }
    return err.str();
  }
};

}  // namespace

const std::vector<const LitmusTest*>& AllTests() {
  static const PublicationTest publication;
  static const DirtyReadTest dirty_read;
  static const MixedAnnotationTest mixed_annotation;
  static const WriteSkewTest write_skew;
  static const PrivatizationTest privatization;
  static const SerialIrrevocableTest serial_irrevocable;
  static const std::vector<const LitmusTest*> all = {
      &publication, &dirty_read, &mixed_annotation, &write_skew, &privatization,
      &serial_irrevocable,
  };
  return all;
}

const LitmusTest* FindTest(const std::string& name) {
  for (const LitmusTest* t : AllTests()) {
    if (t->name() == name) {
      return t;
    }
  }
  return nullptr;
}

}  // namespace litmus
