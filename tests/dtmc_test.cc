// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Tests of the DTMC instrumentation pass: the paper's Figure-2 example
// through both transformation stages, selective annotation, transactional
// function cloning, and the LTO cost model.
#include <gtest/gtest.h>

#include "src/dtmc/instrument_pass.h"
#include "src/tm/tx_driver.h"

namespace dtmc {
namespace {

// The paper's Figure-2 source: void increment() { __tm_atomic { cntr += 5; } }
Module Figure2Module() {
  Module m;
  Function inc;
  inc.name = "increment";
  inc.body = {TxBegin(), Load("l_cntr", "cntr"), Add("l_cntr", "l_cntr", "5"),
              Store("cntr", "l_cntr"), TxEnd(), Ret()};
  m.functions["increment"] = inc;
  return m;
}

std::vector<Op> Ops(const Function& fn) {
  std::vector<Op> ops;
  for (const Instr& i : fn.body) {
    ops.push_back(i.op);
  }
  return ops;
}

TEST(Dtmc, Figure2MiddleStageTargetsAbi) {
  // Stage 2 of Figure 2: transaction statements map onto the TM ABI.
  Module out = InstrumentTm(Figure2Module(), LoweringOptions{.inline_tm = false});
  const Function& fn = out.functions.at("increment");
  ASSERT_EQ(fn.body.size(), 6u);
  EXPECT_EQ(fn.body[0].callee, "_ITM_beginTransaction");
  EXPECT_EQ(fn.body[1].callee, "_ITM_R8");
  EXPECT_EQ(fn.body[1].dst, "l_cntr");
  EXPECT_EQ(fn.body[2].op, Op::kAdd);
  EXPECT_EQ(fn.body[3].callee, "_ITM_W8");
  EXPECT_EQ(fn.body[4].callee, "_ITM_commitTransaction");
  EXPECT_EQ(fn.body[5].op, Op::kRet);
}

TEST(Dtmc, Figure2FinalStageInlinesAsf) {
  // Stage 3 of Figure 2: with LTO, the ABI collapses into ASF instructions:
  // SPECULATE / LOCK MOV / ADD / LOCK MOV / COMMIT.
  Module out = InstrumentTm(Figure2Module(), LoweringOptions{.inline_tm = true});
  const Function& fn = out.functions.at("increment");
  EXPECT_EQ(Ops(fn), (std::vector<Op>{Op::kSpeculate, Op::kLockLoad, Op::kAdd, Op::kLockStore,
                                      Op::kCommitHw, Op::kRet}));
}

TEST(Dtmc, SelectiveAnnotationLeavesStackAccessesPlain) {
  Module m;
  Function fn;
  fn.name = "f";
  fn.body = {TxBegin(), Load("tmp", "local_var", MemClass::kStack),
             Store("shared_var", "tmp"), Store("local_var", "tmp", MemClass::kStack), TxEnd(),
             Ret()};
  m.functions["f"] = fn;
  Module out = InstrumentTm(m, LoweringOptions{.inline_tm = true});
  const Function& g = out.functions.at("f");
  EXPECT_EQ(Ops(g), (std::vector<Op>{Op::kSpeculate, Op::kLoad, Op::kLockStore, Op::kStore,
                                     Op::kCommitHw, Op::kRet}));
  // The stack accesses kept their plain opcodes (not LOCK-annotated).
  EXPECT_EQ(g.body[1].mem, MemClass::kStack);
  EXPECT_EQ(g.body[3].mem, MemClass::kStack);
}

TEST(Dtmc, ClonesCalledFunctionsTransitively) {
  Module m;
  Function leaf;
  leaf.name = "leaf";
  leaf.body = {Load("v", "g"), Ret("v")};
  Function mid;
  mid.name = "mid";
  mid.body = {Call("r", "leaf", ""), Ret("r")};
  Function top;
  top.name = "top";
  top.body = {TxBegin(), Call("x", "mid", ""), TxEnd(), Ret("x")};
  m.functions = {{"leaf", leaf}, {"mid", mid}, {"top", top}};

  Module out = InstrumentTm(m, LoweringOptions{.inline_tm = true});
  // Clones exist for every function reachable from a transaction.
  ASSERT_TRUE(out.Has("mid_tx"));
  ASSERT_TRUE(out.Has("leaf_tx"));
  // The transactional clone of `mid` calls the clone of `leaf`, and the
  // clone of `leaf` uses an instrumented load.
  EXPECT_EQ(out.functions.at("top").body[1].callee, "mid_tx");
  EXPECT_EQ(out.functions.at("mid_tx").body[0].callee, "leaf_tx");
  EXPECT_EQ(out.functions.at("leaf_tx").body[0].op, Op::kLockLoad);
  // The original (non-transactional) versions are untouched.
  EXPECT_EQ(out.functions.at("leaf").body[0].op, Op::kLoad);
  EXPECT_EQ(out.functions.at("mid").body[0].callee, "leaf");
}

TEST(Dtmc, LtoReducesBarrierCost) {
  BarrierCost lib = InstrumentationCost(LoweringOptions{.inline_tm = false});
  BarrierCost lto = InstrumentationCost(LoweringOptions{.inline_tm = true});
  EXPECT_LT(lto.per_load, lib.per_load);
  EXPECT_LT(lto.per_store, lib.per_store);
  EXPECT_LT(lto.begin, lib.begin);
  // The inlined barrier cost is the hardware runtimes' per-access cost.
  EXPECT_EQ(lto.per_load, asftm::HwCosts().barrier_instructions);
  EXPECT_EQ(lto.per_store, asftm::HwCosts().barrier_instructions);
}

TEST(Dtmc, IrPrintingIsStable) {
  Module m = Figure2Module();
  std::string s = m.ToString();
  EXPECT_NE(s.find("func increment"), std::string::npos);
  EXPECT_NE(s.find("tx.begin"), std::string::npos);
  EXPECT_NE(s.find("l_cntr = load cntr [shared]"), std::string::npos);
}

}  // namespace
}  // namespace dtmc
