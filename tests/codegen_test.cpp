#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "codegen/code_generator.hpp"
#include "codegen/emit.hpp"
#include "codegen/lifetimes.hpp"
#include "codegen/mve.hpp"
#include "codegen/register_allocator.hpp"
#include "core/batch_pipeliner.hpp"
#include "core/pipeliner.hpp"
#include "ir/parser.hpp"
#include "machine/cydra5.hpp"
#include "machine/machines.hpp"
#include "reference_loops.hpp"
#include "sched/schedule.hpp"
#include "sim/section_executor.hpp"
#include "support/error.hpp"
#include "workloads/corpus.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;

core::PipelineArtifacts
pipelineKernel(const std::string& name)
{
    static const machine::MachineModel machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    const auto loop = workloads::kernelByName(name).loop;
    return pipeliner.pipeline(core::PipelineRequest(loop))
        .artifactsOrThrow();
}

TEST(KernelTest, StageAndSlotDecomposeScheduleTime)
{
    const auto artifacts = pipelineKernel("daxpy");
    const auto& schedule = artifacts.outcome.schedule;
    const auto& kernel = artifacts.code.kernel;
    for (const auto& placement : kernel.placements) {
        EXPECT_EQ(placement.stage * schedule.ii + placement.slot,
                  schedule.times[placement.op]);
        EXPECT_GE(placement.slot, 0);
        EXPECT_LT(placement.slot, schedule.ii);
        EXPECT_LT(placement.stage, kernel.stageCount);
    }
}

TEST(KernelTest, RowsPartitionTheOps)
{
    const auto artifacts = pipelineKernel("hydro_frag");
    const auto& kernel = artifacts.code.kernel;
    int total = 0;
    for (int slot = 0; slot < kernel.ii; ++slot)
        total += static_cast<int>(kernel.rowOf(slot).size());
    EXPECT_EQ(total, static_cast<int>(kernel.placements.size()));
}

TEST(LifetimeTest, DefToLastUseSpansIiTimesDistance)
{
    // dot_bs4: s = add s[4], t. The accumulator's value is used 4
    // iterations later, so its lifetime is at least 4 * II.
    const auto artifacts = pipelineKernel("dot_bs4");
    const auto& schedule = artifacts.outcome.schedule;
    bool found = false;
    for (const auto& lifetime : artifacts.lifetimes.lifetimes) {
        if (lifetime.length() >= 4 * schedule.ii) {
            found = true;
        }
        EXPECT_GE(lifetime.length(), 1);
    }
    EXPECT_TRUE(found);
}

TEST(LifetimeTest, UnusedResultStillLivesForItsLatency)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("init_store");
    core::SoftwarePipeliner pipeliner(machine);
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    for (const auto& lifetime : artifacts.lifetimes.lifetimes) {
        const auto opcode = w.loop.operation(lifetime.def).opcode;
        EXPECT_GE(lifetime.length(), machine.latency(opcode));
    }
}

/** MaxLive counted one copy at a time: linear in the operand distance. */
int
referenceMaxLive(const codegen::LifetimeAnalysis& analysis, int ii)
{
    int max_live = 0;
    for (int c = 0; c < ii; ++c) {
        int live = 0;
        for (const auto& lifetime : analysis.lifetimes) {
            for (int t = c; t < lifetime.endTime; t += ii) {
                if (t >= lifetime.defTime)
                    ++live;
            }
        }
        max_live = std::max(max_live, live);
    }
    return max_live;
}

TEST(LifetimeTest, ClosedFormMaxLiveMatchesReferenceOnCorpus)
{
    std::vector<ir::Loop> loops;
    for (const auto& w : workloads::buildCorpus())
        loops.push_back(w.loop);
    const auto batch = core::BatchPipeliner(machine::cydra5()).run(loops);
    ASSERT_EQ(batch.successes(), 1327u);
    int above_one = 0;
    for (const auto& item : batch.items) {
        const auto& artifacts = *item.result.artifacts;
        const int reference = referenceMaxLive(
            artifacts.lifetimes, artifacts.outcome.schedule.ii);
        EXPECT_EQ(artifacts.lifetimes.maxLive, reference) << item.name;
        above_one += reference > 1;
    }
    EXPECT_GT(above_one, 1000); // the check is not vacuous
}

core::PipelineResult
pipelineText(const std::string& text, const machine::MachineModel& machine)
{
    const auto loop = ir::parseLoop(text);
    return core::SoftwarePipeliner(machine).pipeline(
        core::PipelineRequest(loop));
}

TEST(LifetimeTest, HugeOperandDistanceIsCountedInClosedForm)
{
    // A value read 2e9 iterations after its definition at II 1 has
    // 2e9+1 live copies; counting them one at a time takes seconds.
    const auto artifacts =
        pipelineText("loop one\n"
                     "recurrence n\n"
                     "n = asub n[2000000000], #3\n"
                     "_ = branch n\n",
                     machine::cydra5())
            .artifactsOrThrow();
    EXPECT_EQ(artifacts.outcome.schedule.ii, 1);
    EXPECT_EQ(artifacts.lifetimes.maxLive, 2000000001);
    EXPECT_EQ(artifacts.code.mve.unroll, 2000000001);
    EXPECT_EQ(artifacts.registers.rotatingRegisters, 2000000001);
}

TEST(LifetimeTest, LifetimesPastIntMaxAnswerTooLarge)
{
    // Two such values at II 1 need 4e9 registers: MaxLive overflows.
    const auto two = pipelineText("loop two\n"
                                  "recurrence n\n"
                                  "n = asub n[2000000000], #3\n"
                                  "recurrence m\n"
                                  "m = asub m[2000000000], #3\n",
                                  machine::cydra5());
    // At scalar-toy's II 2 a distance of 1.5e9 puts the lifetime end
    // itself past INT_MAX.
    const auto toy = pipelineText("loop toy\n"
                                  "recurrence x\n"
                                  "x = asub x[1500000000], #3\n"
                                  "recurrence y\n"
                                  "y = asub y[1500000000], #3\n",
                                  machine::scalarToy());
    for (const auto* result : {&two, &toy}) {
        EXPECT_FALSE(result->ok());
        ASSERT_EQ(result->diagnostics.size(), 1u);
        EXPECT_EQ(result->diagnostics[0].code, "codegen.too_large");
    }
    EXPECT_NE(two.diagnostics[0].message.find("MaxLive 4000000002"),
              std::string::npos);
    EXPECT_NE(toy.diagnostics[0].message.find("lifetime end 3000000001"),
              std::string::npos);
}

TEST(MveTest, UnrollCoversLongestLifetime)
{
    for (const char* name : {"daxpy", "dot_bs4", "vec_copy", "tridiag"}) {
        const auto artifacts = pipelineKernel(name);
        const int ii = artifacts.outcome.schedule.ii;
        int expected = 1;
        for (const auto& lifetime : artifacts.lifetimes.lifetimes)
            expected = std::max(expected,
                                (lifetime.length() + ii - 1) / ii);
        EXPECT_EQ(artifacts.code.mve.unroll, expected) << name;
        EXPECT_EQ(artifacts.lifetimes.kmin, expected) << name;
    }
}

TEST(CodeGenTest, InstanceConservationAcrossTripCounts)
{
    // prologue + (T - SC + 1) kernels + epilogue must contain exactly
    // T * numOps instances.
    for (const char* name :
         {"daxpy", "init_store", "mem_recurrence", "fat_loop"}) {
        const auto artifacts = pipelineKernel(name);
        const auto& code = artifacts.code;
        const int n = static_cast<int>(
            artifacts.outcome.schedule.times.size());
        for (int trip :
             {code.kernel.stageCount, code.kernel.stageCount + 1, 50,
              173}) {
            if (trip < code.kernel.stageCount)
                continue;
            EXPECT_EQ(code.totalInstances(trip),
                      static_cast<long long>(trip) * n)
                << name << " trip " << trip;
        }
    }
}

TEST(CodeGenTest, SectionCycleCounts)
{
    const auto artifacts = pipelineKernel("daxpy");
    const auto& code = artifacts.code;
    const int ii = artifacts.outcome.schedule.ii;
    const int ramp = (code.kernel.stageCount - 1) * ii;
    EXPECT_EQ(code.prologue.numCycles(), ramp);
    EXPECT_EQ(code.kernelSection.numCycles(), ii);
    EXPECT_EQ(code.epilogue.numCycles(), ramp);
}

TEST(CodeGenTest, KernelSectionHoldsEveryOpOnce)
{
    const auto artifacts = pipelineKernel("state_frag");
    EXPECT_EQ(artifacts.code.kernelSection.numInstances(),
              static_cast<int>(artifacts.outcome.schedule.times.size()));
}

TEST(CodeGenTest, CodeExpansionIsBoundedByStagesPlusUnroll)
{
    const auto artifacts = pipelineKernel("vec_copy");
    const double ratio = artifacts.code.codeExpansionRatio(
        artifacts.outcome.schedule.scheduleLength);
    EXPECT_GT(ratio, 0.0);
    // prologue + epilogue + unrolled kernel <= 2 SL + unroll * II worth.
    EXPECT_LT(ratio, 4.0);
}

TEST(RegisterAllocTest, RotatingBlocksDoNotOverlap)
{
    const auto artifacts = pipelineKernel("dot_bs4");
    std::vector<std::pair<int, int>> blocks; // (base, copies)
    for (const auto& a : artifacts.registers.assignments) {
        if (a.rotating)
            blocks.emplace_back(a.base, a.copies);
    }
    std::sort(blocks.begin(), blocks.end());
    for (std::size_t i = 1; i < blocks.size(); ++i) {
        EXPECT_GE(blocks[i].first,
                  blocks[i - 1].first + blocks[i - 1].second);
    }
}

TEST(RegisterAllocTest, TotalsMatchAssignments)
{
    const auto artifacts = pipelineKernel("daxpy");
    int rotating = 0, statics = 0;
    for (const auto& a : artifacts.registers.assignments) {
        if (a.rotating)
            rotating += a.copies;
        else
            statics += 1;
    }
    EXPECT_EQ(artifacts.registers.rotatingRegisters, rotating);
    EXPECT_EQ(artifacts.registers.staticRegisters, statics);
}

TEST(RegisterAllocTest, PhysicalNamesCycleModuloCopies)
{
    const auto artifacts = pipelineKernel("dot_bs4");
    for (const auto& a : artifacts.registers.assignments) {
        if (!a.rotating || a.copies < 2)
            continue;
        const auto& alloc = artifacts.registers;
        EXPECT_EQ(alloc.physicalName(a.reg, 0),
                  alloc.physicalName(a.reg, a.copies));
        EXPECT_NE(alloc.physicalName(a.reg, 0),
                  alloc.physicalName(a.reg, 1));
    }
}

TEST(EmitTest, ListingMentionsAllSections)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("daxpy");
    core::SoftwarePipeliner pipeliner(machine);
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    const std::string listing = codegen::emitListing(
        w.loop, artifacts.code, artifacts.registers);
    EXPECT_NE(listing.find("prologue"), std::string::npos);
    EXPECT_NE(listing.find("kernel"), std::string::npos);
    EXPECT_NE(listing.find("epilogue"), std::string::npos);
    EXPECT_NE(listing.find("rr"), std::string::npos); // rotating regs
}

TEST(EmitTest, KernelDumpShowsStages)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("daxpy");
    core::SoftwarePipeliner pipeliner(machine);
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    const std::string text = codegen::emitKernel(w.loop, artifacts.code);
    EXPECT_NE(text.find("stage"), std::string::npos);
    EXPECT_NE(text.find("row 0"), std::string::npos);
}

TEST(SectionExecutorTest, GeneratedCodeMatchesSequentialSemantics)
{
    // Executing the prologue / kernel-repetitions / epilogue structure
    // (not the flat schedule) must still reproduce the reference
    // semantics exactly — this validates the emitted code's instance
    // bookkeeping end-to-end.
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    for (const char* name :
         {"daxpy", "init_store", "dot_bs4", "first_order_rec",
          "mem_recurrence", "cond_store", "argmax_like", "iccg_like",
          "fat_loop"}) {
        const auto w = workloads::kernelByName(name);
        const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
        const int trip =
            std::max(40, artifacts.code.kernel.stageCount + 3);
        const auto spec = workloads::makeSimSpec(w.loop, trip, 21);
        const auto seq = sim::runSequential(w.loop, spec);
        const auto sections =
            sim::runGeneratedCode(w.loop, artifacts.code, spec);
        EXPECT_TRUE(sim::equivalent(seq, sections)) << name;
    }
}

TEST(SectionExecutorTest, ShortTripCountsRejected)
{
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    const auto w = workloads::kernelByName("vec_copy"); // many stages
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    ASSERT_GT(artifacts.code.kernel.stageCount, 2);
    const auto spec = workloads::makeSimSpec(
        w.loop, artifacts.code.kernel.stageCount - 1, 3);
    EXPECT_THROW(sim::runGeneratedCode(w.loop, artifacts.code, spec),
                 support::Error);
}

TEST(KernelOnlyTest, MatchesSequentialSemantics)
{
    // The [36] kernel-only schema (stage predicates, no prologue or
    // epilogue) must execute to the same final state, including for trip
    // counts below the stage count, which it handles naturally.
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    for (const char* name :
         {"daxpy", "vec_copy", "first_order_rec", "cond_store",
          "mem_recurrence"}) {
        const auto w = workloads::kernelByName(name);
        const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
        for (const int trip : {2, artifacts.code.kernel.stageCount, 40}) {
            const auto spec = workloads::makeSimSpec(w.loop, trip, 31);
            const auto seq = sim::runSequential(w.loop, spec);
            const auto ko =
                sim::runKernelOnly(w.loop, artifacts.code, spec);
            EXPECT_TRUE(sim::equivalent(seq, ko))
                << name << " trip " << trip;
        }
    }
}

TEST(KernelOnlyTest, CodeSizeIsExactlyTheIi)
{
    // The kernel-only code is the kernel section alone: II instructions
    // holding every operation once, guarded by its stage's predicate.
    const auto artifacts = pipelineKernel("daxpy");
    const auto w = workloads::kernelByName("daxpy");
    const auto& schedule = artifacts.outcome.schedule;
    const codegen::CodeSection& kernel = artifacts.code.kernelSection;
    EXPECT_EQ(kernel.numCycles(), schedule.ii);
    EXPECT_EQ(kernel.numInstances(), w.loop.size());
    for (int cycle = 0; cycle < kernel.numCycles(); ++cycle) {
        for (const auto& instance : kernel.cycle(cycle)) {
            EXPECT_EQ(schedule.times[instance.op] % schedule.ii, cycle);
            EXPECT_EQ(-instance.iterationOffset,
                      schedule.times[instance.op] / schedule.ii);
        }
    }
}

TEST(KernelOnlyTest, EmissionShowsStagePredicates)
{
    const auto artifacts = pipelineKernel("daxpy");
    const auto w = workloads::kernelByName("daxpy");
    const std::string text =
        codegen::emitKernelOnly(w.loop, artifacts.code);
    EXPECT_NE(text.find("if sp["), std::string::npos);
    EXPECT_NE(text.find("brtop"), std::string::npos);
}

TEST(EmitTest, MveUnrolledKernelEmitsEachCopy)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("vec_copy"); // big unroll
    core::SoftwarePipeliner pipeliner(machine);
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    ASSERT_GT(artifacts.code.mve.unroll, 1);
    const std::string listing = codegen::emitListing(
        w.loop, artifacts.code, artifacts.registers);
    EXPECT_NE(listing.find("kernel (copy 0)"), std::string::npos);
    EXPECT_NE(listing.find("kernel (copy 1)"), std::string::npos);
}

/**
 * Each defined register's lifetime end by the scan the analysis did before
 * it became one pass: for every register, every operand and guard of
 * every operation. O(registers x operands).
 */
std::vector<std::int64_t>
referenceLifetimeEnds(const ir::Loop& loop,
                      const machine::MachineModel& machine,
                      const sched::ScheduleResult& schedule)
{
    std::vector<std::int64_t> ends;
    for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
        const ir::OpId def = loop.definingOp(reg);
        if (def < 0)
            continue;
        std::int64_t end = static_cast<std::int64_t>(schedule.times[def]) +
                           machine.latency(loop.operation(def).opcode);
        for (const auto& op : loop.operations()) {
            std::vector<ir::Operand> reads = op.sources;
            if (op.guard)
                reads.push_back(*op.guard);
            for (const auto& src : reads) {
                if (src.isRegister() && src.reg == reg) {
                    end = std::max<std::int64_t>(
                        end, schedule.times[op.id] +
                                 static_cast<std::int64_t>(src.distance) *
                                     schedule.ii +
                                 1);
                }
            }
        }
        ends.push_back(end);
    }
    return ends;
}

/** The schedules of the reference loops on every stock machine. */
struct ScheduledLoop
{
    const ir::Loop* loop;
    machine::MachineModel machine;
    sched::ScheduleResult schedule;
};

const std::vector<ScheduledLoop>&
scheduledReferenceLoops()
{
    static const std::vector<ir::Loop> loops = test_loops::referenceLoops();
    static const std::vector<ScheduledLoop> scheduled = [] {
        std::vector<ScheduledLoop> out;
        for (const auto& machine : test_loops::stockMachines()) {
            for (const auto& loop : loops) {
                out.push_back({&loop, machine,
                               sched::schedule(loop, machine).schedule});
            }
        }
        return out;
    }();
    return scheduled;
}

TEST(LifetimeTest, OnePassMatchesThePerRegisterScan)
{
    std::size_t compared = 0;
    for (const auto& [loop, machine, schedule] : scheduledReferenceLoops()) {
        const auto analysis =
            codegen::analyzeLifetimes(*loop, machine, schedule);
        const auto want = referenceLifetimeEnds(*loop, machine, schedule);
        ASSERT_EQ(analysis.lifetimes.size(), want.size()) << loop->name();
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(analysis.lifetimes[i].endTime, want[i])
                << loop->name() << " on " << machine.name() << " register "
                << analysis.lifetimes[i].reg;
        }
        compared += want.size();
    }
    EXPECT_GT(compared, 10000u);
}

TEST(LifetimeTest, TooLargeNamesTheFirstOverflowingRegister)
{
    // At scalar-toy's II 2 every end below is past INT_MAX; the message
    // must carry the first register's end in id order, whichever is
    // larger.
    const auto machine = machine::scalarToy();
    for (const char* text : {"loop small_first\n"
                             "recurrence x\n"
                             "x = asub x[1500000000], #3\n"
                             "recurrence y\n"
                             "y = asub y[1600000000], #3\n",
                             "loop large_first\n"
                             "recurrence x\n"
                             "x = asub x[1600000000], #3\n"
                             "recurrence y\n"
                             "y = asub y[1500000000], #3\n"}) {
        const auto loop = ir::parseLoop(text);
        const auto schedule = sched::schedule(loop, machine).schedule;
        const auto ends = referenceLifetimeEnds(loop, machine, schedule);
        ASSERT_GT(ends.front(), std::numeric_limits<int>::max());
        try {
            codegen::analyzeLifetimes(loop, machine, schedule);
            FAIL() << loop.name() << ": lifetimes past INT_MAX must throw";
        } catch (const support::CodedError& error) {
            EXPECT_EQ(error.code(), "codegen.too_large");
            EXPECT_EQ(error.what(), "lifetime end " +
                                        std::to_string(ends.front()) +
                                        " does not fit in int")
                << loop.name();
        }
    }
}

/** A code section as nested per-cycle vectors. */
using NestedSection = std::vector<std::vector<codegen::OpInstance>>;

/**
 * The three sections as code generation built them before they became
 * flat arrays: one vector per cycle, filled in the same visiting order.
 */
std::vector<NestedSection>
referenceSections(const ir::Loop& loop, const codegen::Kernel& kernel,
                  const sched::ScheduleResult& schedule)
{
    const int ii = schedule.ii;
    const int ramp = (kernel.stageCount - 1) * ii;
    NestedSection prologue(ramp), kernel_rows(ii), epilogue(ramp);
    for (int op = 0; op < loop.size(); ++op) {
        const int t = schedule.times[op];
        for (int j = 0; t + j * ii < ramp; ++j)
            prologue[t + j * ii].push_back({op, j});
    }
    for (const auto& placement : kernel.placements) {
        kernel_rows[placement.slot].push_back(
            {placement.op, -placement.stage});
    }
    for (int op = 0; op < loop.size(); ++op) {
        const int t = schedule.times[op];
        for (int m = 1; t - m * ii >= 0; ++m)
            epilogue[t - m * ii].push_back({op, -m});
    }
    return {prologue, kernel_rows, epilogue};
}

TEST(CodeGenTest, FlatSectionsMatchNestedVectors)
{
    std::size_t instances = 0;
    for (const auto& [loop, machine, schedule] : scheduledReferenceLoops()) {
        const auto code = codegen::generateCode(*loop, machine, schedule);
        const auto want = referenceSections(*loop, code.kernel, schedule);
        const codegen::CodeSection* got[] = {&code.prologue,
                                             &code.kernelSection,
                                             &code.epilogue};
        for (int s = 0; s < 3; ++s) {
            ASSERT_EQ(got[s]->numCycles(), static_cast<int>(want[s].size()))
                << loop->name() << " section " << s;
            for (int c = 0; c < got[s]->numCycles(); ++c) {
                const auto cycle = got[s]->cycle(c);
                ASSERT_EQ(cycle.size(), want[s][c].size())
                    << loop->name() << " section " << s << " cycle " << c;
                for (std::size_t i = 0; i < cycle.size(); ++i) {
                    ASSERT_EQ(cycle[i].op, want[s][c][i].op);
                    ASSERT_EQ(cycle[i].iterationOffset,
                              want[s][c][i].iterationOffset);
                }
            }
            instances += got[s]->numInstances();
        }
    }
    EXPECT_GT(instances, 100000u);
}

} // namespace
