#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ir/loop.hpp"
#include "ir/loop_builder.hpp"
#include "ir/opcode.hpp"
#include "support/error.hpp"

namespace {

using namespace ims;
using ir::Opcode;

TEST(OpcodeTest, NamesRoundTrip)
{
    for (int k = 0; k < ir::kNumRealOpcodes; ++k) {
        const auto opcode = static_cast<Opcode>(k);
        const auto parsed = ir::opcodeFromName(ir::opcodeName(opcode));
        ASSERT_TRUE(parsed.has_value()) << ir::opcodeName(opcode);
        EXPECT_EQ(*parsed, opcode);
    }
}

TEST(OpcodeTest, UnknownNameReturnsNullopt)
{
    EXPECT_FALSE(ir::opcodeFromName("frobnicate").has_value());
}

TEST(OpcodeTest, Classification)
{
    EXPECT_TRUE(ir::isPseudo(Opcode::kStart));
    EXPECT_TRUE(ir::isPseudo(Opcode::kStop));
    EXPECT_FALSE(ir::isPseudo(Opcode::kAdd));
    EXPECT_TRUE(ir::accessesMemory(Opcode::kLoad));
    EXPECT_TRUE(ir::accessesMemory(Opcode::kStore));
    EXPECT_FALSE(ir::accessesMemory(Opcode::kMul));
    EXPECT_TRUE(ir::definesRegister(Opcode::kLoad));
    EXPECT_FALSE(ir::definesRegister(Opcode::kStore));
    EXPECT_FALSE(ir::definesRegister(Opcode::kBranch));
    EXPECT_TRUE(ir::definesPredicate(Opcode::kPredSet));
    EXPECT_FALSE(ir::definesPredicate(Opcode::kCmpGt));
}

TEST(OpcodeTest, SourceCounts)
{
    EXPECT_EQ(ir::sourceCount(Opcode::kLoad), 1);
    EXPECT_EQ(ir::sourceCount(Opcode::kStore), 2);
    EXPECT_EQ(ir::sourceCount(Opcode::kSelect), 3);
    EXPECT_EQ(ir::sourceCount(Opcode::kAbs), 1);
    EXPECT_EQ(ir::sourceCount(Opcode::kPredClear), 0);
    EXPECT_EQ(ir::sourceCount(Opcode::kBranch), 1);
}

TEST(LoopBuilderTest, BuildsValidDaxpyShapedLoop)
{
    ir::LoopBuilder b("t");
    b.liveIn("a");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("x", "X", 0, b.reg("ax"));
    b.op(Opcode::kMul, "t", {b.reg("a"), b.reg("x")});
    b.store("Y", 0, b.reg("ax"), b.reg("t"));
    b.closeLoopBackSubstituted();
    const ir::Loop loop = b.build();

    EXPECT_EQ(loop.size(), 6);
    EXPECT_EQ(loop.numArrays(), 2);
    EXPECT_EQ(loop.maxDistance(), 3);
    // Defs resolve.
    for (const auto& op : loop.operations()) {
        if (op.hasDest()) {
            EXPECT_EQ(loop.definingOp(op.dest), op.id);
        }
    }
}

/** The what() text of the support::Error `action` throws; "" if none. */
template <typename Action>
std::string
errorText(Action&& action)
{
    try {
        action();
    } catch (const support::Error& error) {
        return error.what();
    }
    return "";
}

/** The text `loop.validate()` rejects `loop` with; "" if it accepts. */
std::string
validateError(const ir::Loop& loop)
{
    return errorText([&] { loop.validate(); });
}

/**
 * A loop with registers a (live-in data), x (data, not live-in), p
 * (live-in predicate), q (predicate, not live-in), array A, and `op` as
 * its only operation.
 */
ir::Loop
loopWith(const ir::Operation& op)
{
    ir::Loop loop("t");
    loop.addRegister({"a", false, true});
    loop.addRegister({"x", false, false});
    loop.addRegister({"p", true, true});
    loop.addRegister({"q", true, false});
    loop.addArray({"A"});
    loop.addOperation(op);
    return loop;
}

constexpr ir::RegId kA = 0, kX = 1, kP = 2, kQ = 3;

/** An operation `opcode` writing `dest` from `sources`. */
ir::Operation
makeOp(Opcode opcode, ir::RegId dest, std::vector<ir::Operand> sources)
{
    ir::Operation op;
    op.opcode = opcode;
    op.dest = dest;
    op.sources = std::move(sources);
    return op;
}

TEST(LoopBuilderTest, ReadOfUndeclaredRegisterThrows)
{
    ir::LoopBuilder b("t");
    EXPECT_EQ(errorText([&] { b.reg("nope"); }),
              "operand register 'nope' read before any definition; "
              "declare it with liveIn()/recurrence() or define it first");
}

TEST(LoopBuilderTest, DoubleDefinitionThrows)
{
    ir::LoopBuilder b("t");
    b.liveIn("a");
    b.op(Opcode::kCopy, "x", {b.reg("a")});
    EXPECT_EQ(errorText([&] { b.op(Opcode::kCopy, "x", {b.reg("a")}); }),
              "register 'x' defined more than once (loop is in single "
              "assignment form)");
}

TEST(LoopAddOperationTest, SecondDefinitionOfARegisterThrows)
{
    ir::Loop loop =
        loopWith(makeOp(Opcode::kCopy, kX, {ir::Operand::makeReg(kA)}));
    EXPECT_EQ(errorText([&] {
                  loop.addOperation(
                      makeOp(Opcode::kCopy, kX, {ir::Operand::makeReg(kA)}));
              }),
              "register 'x' defined more than once (loop is in single "
              "assignment form)");
}

TEST(LoopValidateTest, PseudoOpcodeRejected)
{
    ir::Operation op;
    op.opcode = Opcode::kStart;
    EXPECT_EQ(validateError(loopWith(op)),
              "pseudo opcodes may not appear in loop bodies");
}

TEST(LoopValidateTest, OperandArityMismatch)
{
    EXPECT_EQ(validateError(loopWith(
                  makeOp(Opcode::kAdd, kX, {ir::Operand::makeReg(kA)}))),
              "operation 0 (add) has 1 operands, expected 2");
}

TEST(LoopValidateTest, DestMustMatchOpcode)
{
    EXPECT_EQ(validateError(loopWith(makeOp(
                  Opcode::kBranch, kX, {ir::Operand::makeReg(kA)}))),
              "operation 0 dest does not match opcode");
}

TEST(LoopValidateTest, ResultRegisterClassMustMatchOpcode)
{
    EXPECT_EQ(validateError(loopWith(makeOp(
                  Opcode::kCopy, kQ, {ir::Operand::makeReg(kA)}))),
              "operation 0 result register class mismatch");
}

TEST(LoopValidateTest, MemoryOpNeedsMemRef)
{
    EXPECT_EQ(validateError(loopWith(makeOp(
                  Opcode::kLoad, kX, {ir::Operand::makeReg(kA)}))),
              "operation 0 memory reference mismatch");
}

TEST(LoopValidateTest, UndeclaredArrayRejected)
{
    auto op = makeOp(Opcode::kLoad, kX, {ir::Operand::makeReg(kA)});
    op.memRef = ir::MemRef{1, 0, 1};
    EXPECT_EQ(validateError(loopWith(op)),
              "operation 0 references undeclared array");
}

TEST(LoopValidateTest, NonPositiveStrideRejected)
{
    auto op = makeOp(Opcode::kLoad, kX, {ir::Operand::makeReg(kA)});
    op.memRef = ir::MemRef{0, 0, 0};
    EXPECT_EQ(validateError(loopWith(op)),
              "operation 0 has a non-positive memory stride");
}

TEST(LoopValidateTest, UndeclaredRegisterRejected)
{
    EXPECT_EQ(validateError(loopWith(
                  makeOp(Opcode::kCopy, kX, {ir::Operand::makeReg(7)}))),
              "operation 0 reads undeclared register");
}

TEST(LoopValidateTest, NegativeDistanceRejected)
{
    EXPECT_EQ(validateError(loopWith(makeOp(
                  Opcode::kCopy, kX, {ir::Operand::makeReg(kA, -1)}))),
              "negative operand distance on op 0");
}

TEST(LoopValidateTest, ReadOfNeverDefinedRegisterRejected)
{
    ir::Loop loop("t");
    loop.addRegister({"u", false, false});
    const ir::RegId y = loop.addRegister({"y", false, false});
    loop.addOperation(makeOp(Opcode::kCopy, y, {ir::Operand::makeReg(0)}));
    EXPECT_EQ(validateError(loop),
              "operand of op 0 reads register 'u' which is never defined");

    auto guarded = makeOp(Opcode::kCopy, kX, {ir::Operand::makeReg(kA)});
    guarded.guard = ir::Operand::makeReg(kQ);
    EXPECT_EQ(validateError(loopWith(guarded)),
              "guard of op 0 reads register 'q' which is never defined");
}

TEST(LoopValidateTest, CrossIterationReadWithoutSeedThrows)
{
    EXPECT_EQ(validateError(loopWith(makeOp(
                  Opcode::kCopy, kX, {ir::Operand::makeReg(kX, 1)}))),
              "cross-iteration read of register 'x' which has no pre-loop "
              "seed; declare it live-in (recurrence)");
}

TEST(LoopValidateTest, GuardMustBePredicate)
{
    auto immediate = makeOp(Opcode::kCopy, kX, {ir::Operand::makeReg(kA)});
    immediate.guard = ir::Operand::makeImm(1.0);
    EXPECT_EQ(validateError(loopWith(immediate)),
              "guard of op 0 must be a predicate register");

    auto data = makeOp(Opcode::kCopy, kX, {ir::Operand::makeReg(kA)});
    data.guard = ir::Operand::makeReg(kA);
    EXPECT_EQ(validateError(loopWith(data)),
              "guard of op 0 is not a predicate register");

    auto predicate = makeOp(Opcode::kCopy, kX, {ir::Operand::makeReg(kA)});
    predicate.guard = ir::Operand::makeReg(kP);
    EXPECT_EQ(validateError(loopWith(predicate)), "");
}

TEST(LoopPrintTest, OperationToStringShowsDistanceAndMemRef)
{
    ir::LoopBuilder b("t");
    b.recurrence("s");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("x", "X", 1, b.reg("ax"));
    b.op(Opcode::kAdd, "s", {b.reg("s", 4), b.reg("x")});
    b.closeLoopBackSubstituted();
    const ir::Loop loop = b.build();

    const std::string text = loop.toString();
    EXPECT_NE(text.find("s[4]"), std::string::npos);
    EXPECT_NE(text.find("@ X[i+1]"), std::string::npos);
    EXPECT_NE(text.find("ax[3]"), std::string::npos);
}

TEST(LoopPrintTest, StridePrinted)
{
    ir::LoopBuilder b("t");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("x", "X", 1, b.reg("ax"), "", 2);
    b.store("Y", 0, b.reg("ax"), b.reg("x"));
    b.closeLoopBackSubstituted();
    const ir::Loop loop = b.build();
    EXPECT_NE(loop.toString().find("@ X[2*i+1]"), std::string::npos);
}

TEST(LoopTest, MaxDistanceIncludesGuards)
{
    ir::LoopBuilder b("t");
    b.liveIn("p", true);
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.storeIf("Y", 0, b.reg("ax"), b.imm(1.0), b.reg("p", 5));
    b.closeLoopBackSubstituted();
    const ir::Loop loop = b.build();
    EXPECT_EQ(loop.maxDistance(), 5);
}

} // namespace
