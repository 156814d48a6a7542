#include <gtest/gtest.h>

#include "fuzz/reproducer.hpp"
#include "ir/parser.hpp"
#include "machine/machine_io.hpp"
#include "service/options_codec.hpp"
#include "support/error.hpp"

namespace {

using namespace ims;

const char* kDaxpyText = R"(
; daxpy: y[i] += a * x[i]
loop daxpy
livein a
recurrence ax
ax = aadd ax[3], #24
xv = load ax @ X 0
yv = load ax @ Y 0
t  = mul a, xv
s  = add t, yv
_  = store ax, s @ Y 0
recurrence n
n  = asub n[3], #3
_  = branch n
)";

TEST(ParserTest, ParsesDaxpy)
{
    const ir::Loop loop = ir::parseLoop(kDaxpyText);
    EXPECT_EQ(loop.name(), "daxpy");
    EXPECT_EQ(loop.size(), 8);
    EXPECT_EQ(loop.numArrays(), 2);
    EXPECT_EQ(loop.maxDistance(), 3);
    EXPECT_NO_THROW(loop.validate());
}

TEST(ParserTest, ParsesGuardedOperations)
{
    const char* text = R"(
loop guarded
recurrence ax
ax = aadd ax[3], #24
x = load ax @ X 0
p = predset x, #0
_ = store ax, x @ Y 0 if p
recurrence n
n = asub n[3], #3
_ = branch n
)";
    const ir::Loop loop = ir::parseLoop(text);
    EXPECT_EQ(loop.size(), 6);
    bool found_guard = false;
    for (const auto& op : loop.operations())
        found_guard = found_guard || op.guard.has_value();
    EXPECT_TRUE(found_guard);
}

TEST(ParserTest, ParsesGuardWithDistance)
{
    const char* text = R"(
loop g2
predicate p
recurrence ax
ax = aadd ax[3], #24
_ = store ax, #1 @ Y 0 if p[2]
recurrence n
n = asub n[3], #3
_ = branch n
)";
    const ir::Loop loop = ir::parseLoop(text);
    bool checked = false;
    for (const auto& op : loop.operations()) {
        if (op.guard) {
            EXPECT_EQ(op.guard->distance, 2);
            checked = true;
        }
    }
    EXPECT_TRUE(checked);
}

TEST(ParserTest, ImmediateOperands)
{
    const char* text = R"(
loop imms
livein a
t = add a, #-2.5
recurrence n
n = asub n[3], #3
_ = branch n
)";
    const ir::Loop loop = ir::parseLoop(text);
    const auto& op = loop.operation(0);
    ASSERT_EQ(op.sources.size(), 2u);
    EXPECT_FALSE(op.sources[1].isRegister());
    EXPECT_DOUBLE_EQ(op.sources[1].immediate, -2.5);
}

TEST(ParserTest, ErrorsCarryLineNumbers)
{
    const char* text = "loop t\nx = bogus a, b\n";
    try {
        ir::parseLoop(text);
        FAIL() << "must throw";
    } catch (const support::Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
    }
}

TEST(ParserTest, MissingLoopDirective)
{
    EXPECT_THROW(ir::parseLoop("x = add a, b\n"), support::Error);
}

TEST(ParserTest, EmptyTextRejected)
{
    EXPECT_THROW(ir::parseLoop("\n# nothing\n"), support::Error);
}

TEST(ParserTest, LoadWithoutMemRefRejected)
{
    const char* text = R"(
loop t
livein a
x = load a
)";
    EXPECT_THROW(ir::parseLoop(text), support::Error);
}

TEST(ParserTest, UndefinedOperandRejectedWithLine)
{
    const char* text = "loop t\nx = add ghost, #1\n";
    try {
        ir::parseLoop(text);
        FAIL() << "must throw";
    } catch (const support::Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(ParserTest, BadDistanceRejected)
{
    const char* text = "loop t\nlivein a\nx = copy a[zz]\n";
    EXPECT_THROW(ir::parseLoop(text), support::Error);
}

TEST(ParserTest, StridedMemoryReference)
{
    const char* text = R"(
loop strided
recurrence ax
ax = aadd ax[3], #24
x = load ax @ X 1 2
_ = store ax, x @ Y 0
recurrence n
n = asub n[3], #3
_ = branch n
)";
    const ir::Loop loop = ir::parseLoop(text);
    const auto& load = loop.operation(1);
    ASSERT_TRUE(load.memRef.has_value());
    EXPECT_EQ(load.memRef->offset, 1);
    EXPECT_EQ(load.memRef->stride, 2);
    const auto& store = loop.operation(2);
    EXPECT_EQ(store.memRef->stride, 1);
}

TEST(ParserTest, MalformedMemRefRejected)
{
    const char* text = "loop t\nlivein a\nx = load a @ X\n";
    EXPECT_THROW(ir::parseLoop(text), support::Error);
}

TEST(TextFormatTest, NumbersAreReadWhole)
{
    // A number with trailing bytes, or a sign on an unsigned field, is an
    // error in every text format, not a prefix read or a wrapped value.
    for (const char* loop : {
             "loop t\nrecurrence x\nx = add x[1junk], #1\n",
             "loop t\nlivein a\nx = load a @ A 5junk\n",
             "loop t\nlivein a\nx = load a @ A 5 2junk\n",
         })
        EXPECT_THROW(ir::parseLoop(loop), support::Error) << loop;
    for (const char* machine : {
             "machine m\nresource r\nopcode add 1x\nalt a 0:r\n",
             "machine m\nresource r\nopcode add 1\nalt a 0junk:r\n",
         })
        EXPECT_THROW(machine::parseMachine(machine), support::Error)
            << machine;
    for (const char* options : {
             "random_seed -1\n",
             "max_ii_increase 4096x\n",
             "exact_node_budget 1e6\n",
             "verify_sim_seed 2026 \n",
             "verify_sim_trips 0,1x\n",
             "budget_ratio 2junk\n",
         })
        EXPECT_THROW(service::parseOptionsText(options), support::Error)
            << options;
    EXPECT_THROW(fuzz::parseReproducer("code: x\ncase-seed: -1\n"
                                       "%% machine\nmachine m\n"
                                       "%% loop\nloop t\n"),
                 support::Error);
}

} // namespace
