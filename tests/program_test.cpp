#include <gtest/gtest.h>

#include <set>

#include "frontend/region_builder.hpp"
#include "machine/cydra5.hpp"
#include "program/program.hpp"
#include "program/program_compiler.hpp"
#include "program/program_executor.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"
#include "workloads/programs.hpp"

namespace {

using namespace ims;
using program::Block;
using program::CompiledProgram;
using program::Program;
using program::ProgramCompiler;
using program::ProgramOptions;
using program::ProgramSpec;
using program::ProgramState;
using program::c;
using program::v;

const std::vector<int> kTrips = {0, 1, 2, 5, 17};

Program
smallProgram()
{
    Program p("unit.daxpy", workloads::kernelByName("daxpy").loop);
    Block setup("setup");
    setup.assign(ir::Opcode::kMul, "a", {v("alpha"), c(2.0)});
    p.preBlocks.push_back(std::move(setup));
    p.loop.outputs["s.last"] = "s";
    p.loop.itersVar = "iters";
    Block tail("tail");
    tail.store("R", 0, v("s.last"));
    p.postBlocks.push_back(std::move(tail));
    return p;
}

// ---------------------------------------------------------------------
// Program IR structure
// ---------------------------------------------------------------------

TEST(ProgramIrTest, ValidatesCleanProgram)
{
    EXPECT_NO_THROW(smallProgram().validate());
}

TEST(ProgramIrTest, RejectsControlVariableNames)
{
    Program p = smallProgram();
    p.preBlocks[0].assign(ir::Opcode::kAdd, "$lc", {c(1.0), c(2.0)});
    EXPECT_THROW(p.validate(), support::Error);
}

TEST(ProgramIrTest, RejectsTripVariableAssignment)
{
    Program p = smallProgram();
    p.preBlocks[0].assign(ir::Opcode::kAdd, p.loop.tripVar, {c(1.0)});
    EXPECT_THROW(p.validate(), support::Error);
}

TEST(ProgramIrTest, RejectsOutputsOnWhileLoops)
{
    Program p("unit.while", workloads::kernelByName("search_sum").loop);
    p.loop.outputs["sum"] = "s";
    EXPECT_THROW(p.validate(), support::Error);
}

TEST(ProgramIrTest, InputVariablesIncludeConditionalOutputs)
{
    const Program p = smallProgram();
    const auto inputs = p.inputVariables();
    // "alpha" feeds the pre-block; "s.last" is read by the post block but
    // only written when trip >= 1, so the initial state must supply it.
    EXPECT_NE(std::find(inputs.begin(), inputs.end(), "alpha"),
              inputs.end());
    EXPECT_NE(std::find(inputs.begin(), inputs.end(), "s.last"),
              inputs.end());
    EXPECT_EQ(std::find(inputs.begin(), inputs.end(), p.loop.tripVar),
              inputs.end());
}

TEST(ProgramIrTest, CorpusListsAndResolvesByName)
{
    const auto corpus = workloads::programLibrary();
    EXPECT_GE(corpus.size(), 12u);
    std::set<std::string> names;
    for (const auto& entry : corpus) {
        EXPECT_NO_THROW(entry.program.validate());
        EXPECT_TRUE(names.insert(entry.program.name).second)
            << "duplicate corpus name " << entry.program.name;
    }
    EXPECT_EQ(workloads::programByName("prog.daxpy").name, "prog.daxpy");
    EXPECT_THROW(workloads::programByName("prog.nope"), support::Error);
}

// ---------------------------------------------------------------------
// Straight-line block compilation
// ---------------------------------------------------------------------

TEST(CompileBlockTest, SchedulesRespectDependences)
{
    Block b("deps");
    b.assign(ir::Opcode::kMul, "t", {v("x"), v("x")});
    b.assign(ir::Opcode::kAdd, "u", {v("t"), c(1.0)});
    b.store("R", 0, v("u"));
    const auto compiled =
        program::compileBlock(b, machine::cydra5());
    ASSERT_EQ(compiled.times.size(), 3u);
    const auto& machine = machine::cydra5();
    EXPECT_GE(compiled.times[1],
              compiled.times[0]
                  + machine.latency(ir::Opcode::kMul));
    EXPECT_GE(compiled.times[2],
              compiled.times[1]
                  + machine.latency(ir::Opcode::kAdd));
    EXPECT_GT(compiled.cycleCount, 0);
}

TEST(CompileBlockTest, OnlyFinalVersionsWriteBack)
{
    Block b("versions");
    b.assign(ir::Opcode::kAdd, "x", {v("seed"), c(1.0)});
    b.assign(ir::Opcode::kAdd, "x", {v("x"), c(1.0)});
    const auto compiled =
        program::compileBlock(b, machine::cydra5());
    int writers = 0;
    for (const auto& target : compiled.writeback)
        if (target == "x")
            ++writers;
    EXPECT_EQ(writers, 1);
}

// ---------------------------------------------------------------------
// EC/LC loop-control lowering
// ---------------------------------------------------------------------

TEST(ProgramCompilerTest, LowersEcLcIntoPreLoopBlock)
{
    const ProgramCompiler compiler(machine::cydra5());
    const auto result = compiler.compile(smallProgram());
    ASSERT_TRUE(result.ok()) << result.firstError();
    const auto& compiled = *result.compiled;
    ASSERT_FALSE(compiled.pre.empty());
    const auto& last = compiled.pre.back();
    bool lc = false;
    bool ec = false;
    for (const auto& target : last.writeback) {
        lc = lc || target == compiled.control.lc;
        ec = ec || target == compiled.control.ec;
    }
    EXPECT_TRUE(lc) << "no $lc writer in the last pre-loop block";
    EXPECT_TRUE(ec) << "no $ec writer in the last pre-loop block";
}

TEST(ProgramCompilerTest, SynthesizesControlBlockWhenNoPreBlocks)
{
    Program p("unit.bare", workloads::kernelByName("vec_copy").loop);
    const auto result = ProgramCompiler(machine::cydra5()).compile(p);
    ASSERT_TRUE(result.ok()) << result.firstError();
    ASSERT_FALSE(result.compiled->pre.empty());
    EXPECT_EQ(result.compiled->pre.back().name, "loop.control");
}

TEST(ProgramCompilerTest, ControlVariablesStrippedFromFinalState)
{
    const ProgramCompiler compiler(machine::cydra5());
    const auto result = compiler.compile(smallProgram());
    ASSERT_TRUE(result.ok()) << result.firstError();
    const auto spec =
        program::makeProgramSpec(result.compiled->source, 7, 11);
    const auto state = program::runProgramCompiled(*result.compiled, spec);
    for (const auto& [name, value] : state.variables)
        EXPECT_NE(name.front(), program::kControlVarPrefix) << name;
}

TEST(ProgramCompilerTest, ReportsSectionsInProgramOrder)
{
    const ProgramCompiler compiler(machine::cydra5());
    const auto result = compiler.compile(smallProgram());
    ASSERT_TRUE(result.ok()) << result.firstError();
    ASSERT_EQ(result.sections.size(), 3u);
    EXPECT_EQ(result.sections[0].kind, "pre-block");
    EXPECT_EQ(result.sections[1].kind, "loop");
    EXPECT_EQ(result.sections[2].kind, "post-block");
    EXPECT_GT(result.sections[1].ii, 0);
    EXPECT_GT(result.sections[1].stageCount, 0);
    EXPECT_FALSE(result.toJson().empty());
    EXPECT_NE(program::emitProgram(*result.compiled).find("kernel"),
              std::string::npos);
}

TEST(ProgramCompilerTest, JsonEscapesTheProgramName)
{
    Program p = smallProgram();
    p.name = "a\"b";
    const ProgramCompiler compiler(machine::cydra5());
    const auto result = compiler.compile(p);
    ASSERT_TRUE(result.ok()) << result.firstError();
    const std::string json = result.toJson();
    EXPECT_EQ(json.rfind(R"({"program":"a\"b","ok":true,)", 0), 0u) << json;
}

TEST(ProgramCompilerTest, BadOpcodeSurfacesAsDiagnosticNotThrow)
{
    Program p = smallProgram();
    p.preBlocks[0].assign(ir::Opcode::kExitIf, "bad", {c(1.0)});
    const auto result = ProgramCompiler(machine::cydra5()).compile(p);
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.firstError().empty());
}

// ---------------------------------------------------------------------
// End-to-end equivalence: whole corpus, low and high trip counts
// ---------------------------------------------------------------------

TEST(ProgramEquivalenceTest, CorpusMatchesSequentialAtAllTrips)
{
    const auto machine = machine::cydra5();
    for (const auto& entry : workloads::programLibrary()) {
        const auto diagnostics = program::programEquivalenceDiagnostics(
            entry.program, machine, ProgramOptions{}, kTrips, 2026);
        for (const auto& d : diagnostics)
            ADD_FAILURE() << entry.program.name << ": [" << d.code << "] "
                          << d.message;
    }
}

TEST(ProgramEquivalenceTest, CorpusMatchesWithCompressionDisabled)
{
    const auto machine = machine::cydra5();
    const auto options = ProgramOptions{}.withCompression(false);
    for (const auto& entry : workloads::programLibrary()) {
        const auto diagnostics = program::programEquivalenceDiagnostics(
            entry.program, machine, options, kTrips, 4051);
        for (const auto& d : diagnostics)
            ADD_FAILURE() << entry.program.name << ": [" << d.code << "] "
                          << d.message;
    }
}

TEST(ProgramEquivalenceTest, TripsBelowStageCountMatchSequential)
{
    // The low-trip-count audit: every trip from 0 up to past the stage
    // count on a deep-pipeline program (mem_recurrence has a 20-cycle
    // load in its recurrence, so SC is large relative to these trips).
    const auto machine = machine::cydra5();
    const auto program = workloads::programByName("prog.memrec");
    const auto result = ProgramCompiler(machine).compile(program);
    ASSERT_TRUE(result.ok()) << result.firstError();
    const int stages = result.compiled->loop.code.kernel.stageCount;
    for (int trip = 0; trip <= stages + 2; ++trip) {
        const auto spec = program::makeProgramSpec(program, trip, 97);
        const auto expect = program::runProgramSequential(program, spec);
        const auto actual =
            program::runProgramCompiled(*result.compiled, spec);
        EXPECT_EQ(program::describeStateDifference(expect, actual), "")
            << "trip " << trip << " of " << stages << " stages";
    }
}

TEST(ProgramEquivalenceTest, WrappedKernelsMatchSequential)
{
    const auto machine = machine::cydra5();
    for (const auto* name : {"daxpy", "tridiag", "cond_store",
                             "search_sum"}) {
        const auto program = workloads::wrapLoopAsProgram(
            workloads::kernelByName(name).loop,
            std::string("wrap.") + name);
        const auto diagnostics = program::programEquivalenceDiagnostics(
            program, machine, ProgramOptions{}, kTrips, 7);
        for (const auto& d : diagnostics)
            ADD_FAILURE() << program.name << ": [" << d.code << "] "
                          << d.message;
    }
}

TEST(ProgramEquivalenceTest, WhileLoopProgramRunsFlatSchedule)
{
    const auto machine = machine::cydra5();
    const auto program = workloads::programByName("prog.search");
    const auto result = ProgramCompiler(machine).compile(program);
    ASSERT_TRUE(result.ok()) << result.firstError();
    EXPECT_TRUE(result.compiled->loop.isWhile);
    EXPECT_EQ(result.compiled->prologueOverlap, 0);
    EXPECT_EQ(result.compiled->epilogueOverlap, 0);
    const auto spec = program::makeProgramSpec(program, 12, 5);
    const auto expect = program::runProgramSequential(program, spec);
    const auto actual = program::runProgramCompiled(*result.compiled, spec);
    EXPECT_EQ(program::describeStateDifference(expect, actual), "");
    // The WHILE loop may exit before the trip cap; the iteration count
    // must flow into the program variable either way.
    EXPECT_EQ(actual.variables.count("found"), 1u);
    EXPECT_EQ(actual.loopIterations, expect.loopIterations);
}

TEST(ProgramEquivalenceTest, RegionBuilderProgramCompilesAndMatches)
{
    const auto machine = machine::cydra5();
    const auto program = workloads::programByName("prog.roots");
    const auto diagnostics = program::programEquivalenceDiagnostics(
        program, machine, ProgramOptions{}, kTrips, 13);
    for (const auto& d : diagnostics)
        ADD_FAILURE() << "[" << d.code << "] " << d.message;
}

// ---------------------------------------------------------------------
// Pipeline compression
// ---------------------------------------------------------------------

TEST(CompressionTest, NeverCostsCyclesAndWinsSomewhere)
{
    const auto machine = machine::cydra5();
    bool any_win = false;
    for (const auto& entry : workloads::programLibrary()) {
        const auto result =
            ProgramCompiler(machine).compile(entry.program);
        ASSERT_TRUE(result.ok())
            << entry.program.name << ": " << result.firstError();
        const auto& compiled = *result.compiled;
        for (const int trip : kTrips) {
            EXPECT_LE(compiled.compiledCycles(trip),
                      compiled.naiveCycles(trip))
                << entry.program.name << " at trip " << trip;
        }
        if (compiled.prologueOverlap > 0 || compiled.epilogueOverlap > 0)
            any_win = true;
    }
    EXPECT_TRUE(any_win)
        << "compression found no overlap on any corpus program";
}

TEST(CompressionTest, HydroOverlapsAndStaysEquivalent)
{
    // prog.hydro is built as the compression showcase: independent
    // pre-block tail and post-block head touching only the W array.
    const auto machine = machine::cydra5();
    const auto program = workloads::programByName("prog.hydro");
    const auto result = ProgramCompiler(machine).compile(program);
    ASSERT_TRUE(result.ok()) << result.firstError();
    EXPECT_GT(result.compiled->prologueOverlap
                  + result.compiled->epilogueOverlap,
              0);
    EXPECT_LT(result.compiled->compiledCycles(17),
              result.compiled->naiveCycles(17));
}

TEST(CompressionTest, DisabledCompressionHasNoOverlap)
{
    const auto machine = machine::cydra5();
    const auto options = ProgramOptions{}.withCompression(false);
    const auto result = ProgramCompiler(machine, options)
                            .compile(workloads::programByName("prog.hydro"));
    ASSERT_TRUE(result.ok()) << result.firstError();
    EXPECT_EQ(result.compiled->prologueOverlap, 0);
    EXPECT_EQ(result.compiled->epilogueOverlap, 0);
}

} // namespace
