#include <gtest/gtest.h>

#include "machine/cydra5.hpp"
#include "machine/machine_builder.hpp"
#include "machine/machine_io.hpp"
#include "machine/machines.hpp"
#include "machine/reservation_table.hpp"
#include "support/error.hpp"

namespace {

using namespace ims;
using ir::Opcode;
using machine::ReservationTable;
using machine::TableKind;

TEST(ReservationTableTest, KindClassificationPerSection21)
{
    ReservationTable simple;
    simple.addUse(0, 0);
    EXPECT_EQ(simple.kind(), TableKind::kSimple);

    ReservationTable block;
    block.addBlockUse(0, 3, 0);
    EXPECT_EQ(block.kind(), TableKind::kBlock);

    // Single resource but not starting at issue: complex.
    ReservationTable late;
    late.addUse(1, 0);
    EXPECT_EQ(late.kind(), TableKind::kComplex);

    // Multiple resources: complex.
    ReservationTable multi;
    multi.addUse(0, 0);
    multi.addUse(1, 1);
    EXPECT_EQ(multi.kind(), TableKind::kComplex);

    // Gap in a single-resource usage: complex.
    ReservationTable gap;
    gap.addUse(0, 0);
    gap.addUse(2, 0);
    EXPECT_EQ(gap.kind(), TableKind::kComplex);
}

TEST(ReservationTableTest, LengthAndNormalization)
{
    ReservationTable table;
    table.addUse(3, 1);
    table.addUse(0, 2);
    table.addUse(3, 1); // duplicate collapses
    EXPECT_EQ(table.length(), 4);
    EXPECT_EQ(table.uses().size(), 2u);
    EXPECT_EQ(table.uses().front().time, 0);
}

/**
 * Reproduce the Figure 1 collision analysis with the figure's shared-bus
 * tables: "an ALU operation and a multiply cannot be scheduled for issue
 * at the same time since they will collide in their usage of the source
 * buses. Furthermore, although a multiply may be issued any number of
 * cycles after an add, an add may not be issued two cycles after a
 * multiply since this will result in a collision on the result bus."
 */
TEST(ReservationTableTest, Figure1CollisionAnalysis)
{
    const machine::ResourceId src_a = 0, src_b = 1, alu1 = 2, alu2 = 3,
                              mul1 = 4, mul2 = 5, mul3 = 6, result = 7;
    ReservationTable add;
    add.addUse(0, src_a);
    add.addUse(0, src_b);
    add.addUse(1, alu1);
    add.addUse(2, alu2);
    add.addUse(3, result);

    ReservationTable mul;
    mul.addUse(0, src_a);
    mul.addUse(0, src_b);
    mul.addUse(1, mul1);
    mul.addUse(2, mul2);
    mul.addUse(3, mul3);
    mul.addUse(4, result);

    // collidesWith(other, delta): *this* issued delta cycles after other.
    // Same-cycle issue collides (source buses).
    EXPECT_TRUE(add.collidesWith(mul, 0));
    EXPECT_TRUE(mul.collidesWith(add, 0));
    // A multiply issued k >= 1 cycles after an add never collides.
    for (int k = 1; k <= 8; ++k)
        EXPECT_FALSE(mul.collidesWith(add, k)) << "delta " << k;
    // An add issued shortly after a multiply collides on the result bus:
    // with these tables the add's result (delta + 3) meets the multiply's
    // (4) at delta == 1. (The paper's Figure 1 multiplier is one stage
    // deeper, putting the same collision at delta == 2.)
    EXPECT_TRUE(add.collidesWith(mul, 1));
    EXPECT_FALSE(add.collidesWith(mul, 2));
}

TEST(ReservationTableTest, SelfCollisionViaDelta)
{
    ReservationTable block;
    block.addBlockUse(0, 2, 0);
    EXPECT_TRUE(block.collidesWith(block, 1));
    EXPECT_TRUE(block.collidesWith(block, 2));
    EXPECT_FALSE(block.collidesWith(block, 3));
}

TEST(MachineBuilderTest, BuildsAndQueries)
{
    machine::MachineBuilder b("toy");
    const auto alu = b.addResource("alu");
    const auto mem = b.addResource("mem");
    b.opcode(Opcode::kAdd, 2).simpleAlternative("alu", alu);
    b.opcode(Opcode::kLoad, 5)
        .simpleAlternative("mem", mem)
        .blockAlternative("alu-path", alu, 2);
    const machine::MachineModel m = b.build();

    EXPECT_EQ(m.numResources(), 2);
    EXPECT_TRUE(m.supports(Opcode::kAdd));
    EXPECT_FALSE(m.supports(Opcode::kDiv));
    EXPECT_EQ(m.latency(Opcode::kLoad), 5);
    EXPECT_EQ(m.numAlternatives(Opcode::kLoad), 2);
    EXPECT_EQ(m.resourceName(0), "alu");
    EXPECT_THROW(m.info(Opcode::kDiv), support::Error);
}

TEST(MachineBuilderTest, PseudoOpsImplicitlySupported)
{
    machine::MachineBuilder b("toy");
    const auto alu = b.addResource("alu");
    b.opcode(Opcode::kAdd, 1).simpleAlternative("alu", alu);
    const machine::MachineModel m = b.build();
    EXPECT_TRUE(m.supports(Opcode::kStart));
    EXPECT_EQ(m.latency(Opcode::kStop), 0);
    EXPECT_TRUE(m.info(Opcode::kStart).alternatives[0].table.empty());
}

TEST(Cydra5Test, MatchesTable2Latencies)
{
    const auto m = machine::cydra5();
    EXPECT_EQ(m.latency(Opcode::kLoad), 20); // paper's substituted latency
    EXPECT_EQ(m.latency(Opcode::kAddrAdd), 3);
    EXPECT_EQ(m.latency(Opcode::kAdd), 4);
    EXPECT_EQ(m.latency(Opcode::kMul), 5);
    EXPECT_EQ(m.latency(Opcode::kDiv), 22);
    EXPECT_EQ(m.latency(Opcode::kSqrt), 26);
    EXPECT_EQ(m.latency(Opcode::kBranch), 1);
}

TEST(Cydra5Test, AlternativesMatchUnitCounts)
{
    const auto m = machine::cydra5();
    EXPECT_EQ(m.numAlternatives(Opcode::kLoad), 2);  // two memory ports
    EXPECT_EQ(m.numAlternatives(Opcode::kAddrAdd), 2);
    EXPECT_EQ(m.numAlternatives(Opcode::kAdd), 1);
    EXPECT_EQ(m.numAlternatives(Opcode::kMul), 1);
    EXPECT_EQ(m.numAlternatives(Opcode::kCopy), 3); // adder or either AALU
}

TEST(Cydra5Test, AdderAndMultiplierTablesAreComplex)
{
    const auto m = machine::cydra5();
    EXPECT_EQ(m.info(Opcode::kAdd).alternatives[0].table.kind(),
              TableKind::kComplex);
    EXPECT_EQ(m.info(Opcode::kMul).alternatives[0].table.kind(),
              TableKind::kComplex);
    EXPECT_EQ(m.info(Opcode::kLoad).alternatives[0].table.kind(),
              TableKind::kSimple);
}

TEST(Cydra5Test, DivBlocksTheMultiplierStage)
{
    const auto m = machine::cydra5();
    const auto& div = m.info(Opcode::kDiv).alternatives[0].table;
    // 18 consecutive uses of the first multiplier stage.
    int stage_uses = 0;
    for (const auto& use : div.uses()) {
        if (m.resourceName(use.resource) == "mult-stage-1")
            ++stage_uses;
    }
    EXPECT_EQ(stage_uses, 18);
}

TEST(OtherMachinesTest, Clean64HasOnlySimpleOrBlockTables)
{
    const auto m = machine::clean64();
    for (int k = 0; k < ir::kNumRealOpcodes; ++k) {
        const auto opcode = static_cast<Opcode>(k);
        if (!m.supports(opcode))
            continue;
        for (const auto& alt : m.info(opcode).alternatives)
            EXPECT_NE(alt.table.kind(), TableKind::kComplex)
                << ir::opcodeName(opcode);
    }
}

TEST(OtherMachinesTest, WideVliwHasFourMemPorts)
{
    const auto m = machine::wideVliw();
    EXPECT_EQ(m.numAlternatives(Opcode::kLoad), 4);
    EXPECT_EQ(m.numAlternatives(Opcode::kAdd), 2);
}

TEST(OtherMachinesTest, ScalarToySupportsEverything)
{
    const auto m = machine::scalarToy();
    for (int k = 0; k < ir::kNumRealOpcodes; ++k)
        EXPECT_TRUE(m.supports(static_cast<Opcode>(k)));
}

TEST(MachineModelTest, ToStringMentionsResourcesAndKinds)
{
    const auto m = machine::cydra5();
    const std::string text = m.toString();
    EXPECT_NE(text.find("mem-port-0"), std::string::npos);
    EXPECT_NE(text.find("complex"), std::string::npos);
    EXPECT_NE(text.find("load"), std::string::npos);
}

TEST(MachineModelTest, UndeclaredResourceRejected)
{
    ReservationTable bad;
    bad.addUse(0, 5); // resource 5 does not exist
    std::map<ir::Opcode, machine::OpcodeInfo> opcodes;
    machine::OpcodeInfo info;
    info.latency = 1;
    info.alternatives = {machine::Alternative{"x", bad}};
    opcodes[Opcode::kAdd] = info;
    EXPECT_THROW(machine::MachineModel("bad", {"r0"}, opcodes),
                 support::Error);
}

TEST(MachineModelTest, NegativeLatencyOrUseTimeRejected)
{
    // Every machine passes through the constructor: the text format,
    // the builder and direct construction all reject these. A negative
    // time would otherwise become a negative MRT rotation.
    EXPECT_THROW(machine::parseMachine("machine neg2\n"
                                       "resource r\n"
                                       "resource s\n"
                                       "opcode add 1\n"
                                       "alt a 0:s 0:r -7:r\n"),
                 support::Error);
    EXPECT_THROW(machine::parseMachine("machine neg\n"
                                       "resource r\n"
                                       "opcode add -3\n"
                                       "alt a 0:r\n"),
                 support::Error);

    machine::MachineBuilder builder("neg");
    const auto alu = builder.addResource("alu");
    builder.opcode(Opcode::kAdd, -3).simpleAlternative("alu", alu);
    EXPECT_THROW(builder.build(), support::Error);

    std::map<ir::Opcode, machine::OpcodeInfo> opcodes;
    machine::OpcodeInfo info;
    info.alternatives = {
        machine::Alternative{"x", ReservationTable({{-1, 0}})}};
    opcodes[Opcode::kAdd] = info;
    EXPECT_THROW(machine::MachineModel("bad", {"r0"}, opcodes),
                 support::Error);
}

} // namespace
