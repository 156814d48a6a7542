#include <gtest/gtest.h>

#include "core/pipeliner.hpp"
#include "ir/loop_builder.hpp"
#include "machine/cydra5.hpp"
#include "sim/memory.hpp"
#include "sim/pipeline_simulator.hpp"
#include "sim/section_executor.hpp"
#include "sim/sequential_interpreter.hpp"
#include "sim/value.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;
using ir::Opcode;

TEST(ValueTest, OpcodeSemantics)
{
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kAdd, {2, 3}), 5);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kSub, {2, 3}), -1);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kMul, {2, 3}), 6);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kDiv, {6, 3}), 2);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kDiv, {6, 0}), 0); // total fn
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kSqrt, {-9}), 3);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kMin, {2, 3}), 2);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kMax, {2, 3}), 3);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kAbs, {-4}), 4);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kCmpGt, {3, 2}), 1);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kCmpGt, {2, 3}), 0);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kPredSet, {1, 0}), 1);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kPredClear, {}), 0);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kSelect, {1, 7, 9}), 7);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kSelect, {0, 7, 9}), 9);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kCopy, {42}), 42);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kAddrAdd, {8, 8}), 16);
    EXPECT_DOUBLE_EQ(sim::evaluate(Opcode::kAddrSub, {8, 3}), 5);
}

TEST(MemoryTest, MarginSupportsNegativeIndices)
{
    ir::LoopBuilder b("m");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("x", "X", -1, b.reg("ax"));
    b.store("Y", 0, b.reg("ax"), b.reg("x"));
    b.closeLoopBackSubstituted();
    const auto loop = b.build();

    sim::Memory memory(loop, 10, 4);
    memory.write(0, -3, 7.5);
    EXPECT_DOUBLE_EQ(memory.read(0, -3), 7.5);
    EXPECT_DOUBLE_EQ(memory.read(0, 0), 0.0);
    EXPECT_THROW(memory.read(0, -5), support::Error);
}

TEST(MemoryTest, SnapshotAndEquality)
{
    ir::LoopBuilder b("m");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.store("Y", 0, b.reg("ax"), b.imm(1.0));
    b.closeLoopBackSubstituted();
    const auto loop = b.build();

    sim::Memory a(loop, 4, 2);
    sim::Memory c(loop, 4, 2);
    EXPECT_TRUE(a == c);
    a.write(0, 1, 3.0);
    EXPECT_FALSE(a == c);
    c.write(0, 1, 3.0);
    EXPECT_TRUE(a == c);
    const auto snap = a.snapshot(0, 0, 3);
    EXPECT_DOUBLE_EQ(snap[1], 3.0);
}

TEST(SequentialTest, DaxpyComputesExactValues)
{
    const auto w = workloads::kernelByName("daxpy");
    sim::SimSpec spec;
    spec.tripCount = 5;
    spec.margin = 8;
    spec.liveIn["a"] = 2.0;
    std::vector<double> x = {1, 2, 3, 4, 5};
    std::vector<double> y = {10, 20, 30, 40, 50};
    spec.arrays["X"] = {0, x};
    spec.arrays["Y"] = {0, y};
    const auto result = sim::runSequential(w.loop, spec);
    // Find the Y array id.
    for (ir::ArrayId arr = 0; arr < w.loop.numArrays(); ++arr) {
        if (w.loop.arrays()[arr].name != "Y")
            continue;
        for (int i = 0; i < 5; ++i) {
            EXPECT_DOUBLE_EQ(result.memory.read(arr, i),
                             y[i] + 2.0 * x[i])
                << i;
        }
    }
}

TEST(SequentialTest, FirstOrderRecurrenceUsesSeed)
{
    const auto w = workloads::kernelByName("first_order_rec");
    sim::SimSpec spec;
    spec.tripCount = 3;
    spec.liveIn["a"] = 0.5;
    spec.seeds["x"] = {8.0}; // x_{-1}
    spec.arrays["B"] = {0, {1.0, 1.0, 1.0}};
    const auto result = sim::runSequential(w.loop, spec);
    // x_0 = .5*8+1 = 5; x_1 = 3.5; x_2 = 2.75.
    EXPECT_DOUBLE_EQ(result.finalRegisters.at("x"), 2.75);
}

TEST(SequentialTest, GuardFalseSkipsStoreAndZeroesDest)
{
    const auto w = workloads::kernelByName("cond_store");
    sim::SimSpec spec;
    spec.tripCount = 4;
    spec.arrays["X"] = {0, {1.0, -1.0, 2.0, -2.0}};
    spec.arrays["Y"] = {0, {9.0, 9.0, 9.0, 9.0}};
    const auto result = sim::runSequential(w.loop, spec);
    for (ir::ArrayId arr = 0; arr < w.loop.numArrays(); ++arr) {
        if (w.loop.arrays()[arr].name != "Y")
            continue;
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 0), 1.0);
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 1), 9.0); // kept
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 2), 2.0);
        EXPECT_DOUBLE_EQ(result.memory.read(arr, 3), 9.0); // kept
    }
}

TEST(SequentialTest, MaxReduceTracksRunningMaximum)
{
    const auto w = workloads::kernelByName("max_reduce");
    sim::SimSpec spec;
    spec.tripCount = 4;
    spec.liveIn["m"] = -100.0; // seed fallback for m[-1]
    spec.arrays["X"] = {0, {3.0, 9.0, 1.0, 4.0}};
    const auto result = sim::runSequential(w.loop, spec);
    EXPECT_DOUBLE_EQ(result.finalRegisters.at("m"), 9.0);
}

TEST(SequentialTest, MemoryRecurrencePropagates)
{
    const auto w = workloads::kernelByName("mem_recurrence");
    sim::SimSpec spec;
    spec.tripCount = 3;
    spec.liveIn["r"] = 2.0;
    std::vector<double> a_init = {5.0}; // A[-1]
    spec.arrays["A"] = {-1, a_init};
    spec.arrays["B"] = {0, {1.0, 1.0, 1.0}};
    const auto result = sim::runSequential(w.loop, spec);
    // A[0] = 5*2+1 = 11; A[1] = 23; A[2] = 47.
    for (ir::ArrayId arr = 0; arr < w.loop.numArrays(); ++arr) {
        if (w.loop.arrays()[arr].name == "A") {
            EXPECT_DOUBLE_EQ(result.memory.read(arr, 0), 11.0);
            EXPECT_DOUBLE_EQ(result.memory.read(arr, 1), 23.0);
            EXPECT_DOUBLE_EQ(result.memory.read(arr, 2), 47.0);
        }
    }
}

TEST(SequentialTest, StridedAccessesReachStridedCells)
{
    const auto w = workloads::kernelByName("iccg_like");
    sim::SimSpec spec = workloads::makeSimSpec(w.loop, 6, 3);
    EXPECT_NO_THROW(sim::runSequential(w.loop, spec));
}

TEST(SequentialTest, RejectsNonTopologicalBodies)
{
    // A body reading a same-iteration value defined later in program
    // order must be diagnosed.
    ir::Loop loop("bad_order");
    const auto x = loop.addRegister({"x", false, false});
    const auto y = loop.addRegister({"y", false, false});
    const auto a = loop.addRegister({"a", false, true});
    ir::Operation first;
    first.opcode = Opcode::kCopy;
    first.dest = y;
    first.sources = {ir::Operand::makeReg(x)}; // x defined below
    loop.addOperation(first);
    ir::Operation second;
    second.opcode = Opcode::kCopy;
    second.dest = x;
    second.sources = {ir::Operand::makeReg(a)};
    loop.addOperation(second);

    sim::SimSpec spec;
    spec.tripCount = 2;
    EXPECT_THROW(sim::runSequential(loop, spec), support::Error);
}

TEST(PipelineSimTest, CyclesFollowExecutionTimeModel)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("daxpy");
    core::SoftwarePipeliner pipeliner(machine);
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    const auto spec = workloads::makeSimSpec(w.loop, 40, 7);
    const auto result =
        sim::runPipelined(w.loop, artifacts.outcome.schedule, spec);
    EXPECT_EQ(result.cycles,
              39LL * artifacts.outcome.schedule.ii +
                  artifacts.outcome.schedule.scheduleLength);
}

TEST(PipelineSimTest, MatchesSequentialOnEveryKernel)
{
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    for (const auto& w : workloads::kernelLibrary()) {
        const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
        const auto spec = workloads::makeSimSpec(w.loop, 30, 11);
        const auto seq = sim::runSequential(w.loop, spec);
        const auto pipe =
            sim::runPipelined(w.loop, artifacts.outcome.schedule, spec);
        EXPECT_TRUE(sim::equivalent(seq, pipe.state)) << w.loop.name();
    }
}

TEST(PipelineSimTest, LowTripCountsMatchSequentialEverywhere)
{
    // Low-trip-count audit: every trip count below the stage count —
    // including zero — through both pipelined execution schemas. A
    // zero-trip loop must leave the final registers EMPTY like the
    // sequential reference, not report seed values.
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    for (const char* name :
         {"daxpy", "mem_recurrence", "tridiag", "cond_store"}) {
        const auto w = workloads::kernelByName(name);
        const auto artifacts =
            pipeliner.pipeline(core::PipelineRequest(w.loop))
                .artifactsOrThrow();
        for (int trip = 0; trip < artifacts.code.kernel.stageCount;
             ++trip) {
            const auto spec = workloads::makeSimSpec(w.loop, trip, 23);
            const auto seq = sim::runSequential(w.loop, spec);
            const auto ko = sim::runKernelOnly(w.loop, artifacts.code, spec);
            EXPECT_TRUE(sim::equivalent(seq, ko))
                << name << " kernel-only trip " << trip;
            const auto pipe = sim::runPipelined(
                w.loop, artifacts.outcome.schedule, spec);
            EXPECT_TRUE(sim::equivalent(seq, pipe.state))
                << name << " pipelined trip " << trip;
        }
    }
}

TEST(PipelineSimTest, ZeroTripKernelOnlyLeavesRegistersEmpty)
{
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    const auto w = workloads::kernelByName("dot_raw");
    const auto artifacts =
        pipeliner.pipeline(core::PipelineRequest(w.loop))
            .artifactsOrThrow();
    const auto spec = workloads::makeSimSpec(w.loop, 0, 23);
    const auto ko = sim::runKernelOnly(w.loop, artifacts.code, spec);
    EXPECT_TRUE(ko.finalRegisters.empty());
    EXPECT_TRUE(sim::runSequential(w.loop, spec).finalRegisters.empty());
}

TEST(PipelineSimTest, TripCountOfOneStillWorks)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("daxpy");
    core::SoftwarePipeliner pipeliner(machine);
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    const auto spec = workloads::makeSimSpec(w.loop, 1, 5);
    const auto seq = sim::runSequential(w.loop, spec);
    const auto pipe =
        sim::runPipelined(w.loop, artifacts.outcome.schedule, spec);
    EXPECT_TRUE(sim::equivalent(seq, pipe.state));
}

} // namespace
