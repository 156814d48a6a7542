#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <iterator>
#include <utility>
#include <vector>

#include "codegen/emit.hpp"
#include "core/pipeliner.hpp"
#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "ir/parser.hpp"
#include "machine/cydra5.hpp"
#include "machine/machine_io.hpp"
#include "mii/mii.hpp"
#include "program/program_executor.hpp"
#include "reference_loops.hpp"
#include "sched/schedule.hpp"
#include "sched/verifier.hpp"
#include "service/schedule_cache.hpp"
#include "sim/pipeline_simulator.hpp"
#include "sim/section_executor.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "workloads/corpus.hpp"
#include "workloads/kernels.hpp"
#include "workloads/programs.hpp"

namespace {

using namespace ims;

/**
 * Golden regression values: the achieved II per kernel on the Cydra-5
 * model is pinned exactly (the scheduler is deterministic). A change here
 * means the algorithm's behaviour changed — update deliberately, never
 * casually.
 */
struct Golden
{
    const char* kernel;
    int mii;
    int ii;
};

constexpr Golden kGolden[] = {
    {"init_store", 1, 1},    {"vec_copy", 1, 1},
    {"vec_scale", 1, 1},     {"daxpy", 2, 2},
    {"dot_raw", 4, 4},       {"dot_bs4", 2, 2},
    {"first_order_rec", 9, 9}, {"tridiag", 9, 9},
    {"hydro_frag", 5, 5},    {"state_frag", 8, 8},
    {"stencil3", 3, 3},      {"mem_recurrence", 30, 30},
    {"cond_store", 2, 2},    {"max_reduce", 4, 4},
    {"div_kernel", 18, 18},  {"sqrt_kernel", 22, 22},
    {"horner_rec", 9, 9},    {"raw_counter", 3, 3},
    {"lfk20_ordinates", 31, 31}, {"fir8", 15, 15},
    {"complex_mult", 6, 6},  {"dual_store", 2, 2},
};

TEST(GoldenTest, KernelIisOnCydra5)
{
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    for (const auto& golden : kGolden) {
        const auto w = workloads::kernelByName(golden.kernel);
        const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
        EXPECT_EQ(artifacts.outcome.mii, golden.mii) << golden.kernel;
        EXPECT_EQ(artifacts.outcome.schedule.ii, golden.ii)
            << golden.kernel;
    }
}

/**
 * Corpus-level invariants behind Table 3: guard the workload calibration
 * so a generator change that breaks the paper's shape fails loudly. Run
 * on a 250-loop slice to keep the test fast.
 */
TEST(GoldenTest, CorpusShapeMatchesTable3Bands)
{
    const auto machine = machine::cydra5();
    workloads::CorpusSpec spec;
    spec.perfectLoops = 180;
    spec.specLoops = 50;
    spec.lfkLoops = 20;
    const auto corpus = workloads::buildCorpus(spec);

    sched::ScheduleOptions options;
    options.search.budgetRatio = 6.0;

    std::vector<double> ops, at_mii, vectorizable, rec_le_res;
    for (const auto& w : corpus) {
        const auto g = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(g);
        const auto mii = mii::computeMii(w.loop, machine, g, sccs);
        const auto outcome =
            sched::schedule(w.loop, machine, g, sccs, options);
        ops.push_back(w.loop.size());
        at_mii.push_back(outcome.schedule.ii == mii.mii ? 1.0 : 0.0);
        int non_trivial = 0;
        for (const auto& component : sccs.components()) {
            non_trivial += !g.isPseudo(component.front()) &&
                           component.size() > 1;
        }
        vectorizable.push_back(non_trivial == 0 ? 1.0 : 0.0);
        rec_le_res.push_back(
            mii::computeTrueRecMii(g, sccs) <= mii.resMii ? 1.0 : 0.0);
    }

    // Loop sizes: median near the paper's ~12, mean near ~19.5.
    EXPECT_GE(support::median(ops), 6.0);
    EXPECT_LE(support::median(ops), 18.0);
    EXPECT_GE(support::mean(ops), 12.0);
    EXPECT_LE(support::mean(ops), 28.0);
    // Near-universal optimality (paper: 96%).
    EXPECT_GE(support::mean(at_mii), 0.90);
    // Vectorizable fraction (paper: 77%).
    EXPECT_GE(support::mean(vectorizable), 0.60);
    EXPECT_LE(support::mean(vectorizable), 0.95);
    // RecMII below ResMII for most loops (paper: 84%).
    EXPECT_GE(support::mean(rec_le_res), 0.60);
}

/**
 * Figure 6 shape invariants on a small corpus slice: dilation falls as
 * the budget grows; inefficiency is no better at a starved budget than
 * near the paper's optimum.
 */
TEST(GoldenTest, BudgetRatioCurveShape)
{
    const auto machine = machine::cydra5();
    workloads::CorpusSpec spec;
    spec.perfectLoops = 120;
    spec.specLoops = 40;
    spec.lfkLoops = 20;
    const auto corpus = workloads::buildCorpus(spec);

    auto sweep = [&](double budget_ratio) {
        sched::ScheduleOptions options;
        options.search.budgetRatio = budget_ratio;
        long long steps = 0, ops = 0;
        double ii_sum = 0.0, mii_sum = 0.0;
        for (const auto& w : corpus) {
            const auto g = graph::buildDepGraph(w.loop, machine);
            const auto sccs = graph::findSccs(g);
            const auto outcome =
                sched::schedule(w.loop, machine, g, sccs, options);
            steps += outcome.totalSteps;
            ops += w.loop.size() + 2;
            ii_sum += outcome.schedule.ii;
            mii_sum += outcome.mii;
        }
        return std::make_pair(static_cast<double>(steps) / ops,
                              ii_sum / mii_sum);
    };

    const auto [ineff_1, ii_1] = sweep(1.0);
    const auto [ineff_2, ii_2] = sweep(2.0);
    const auto [ineff_4, ii_4] = sweep(4.0);

    // Quality improves (weakly) with budget.
    EXPECT_GE(ii_1, ii_2);
    EXPECT_GE(ii_2, ii_4);
    // A starved budget wastes whole attempts: worse inefficiency than
    // the recommended setting (the left side of Figure 6's U).
    EXPECT_GT(ineff_1, ineff_2);
    // And a lavish budget spends more per op than the optimum region
    // (the right side of the U rises slowly).
    EXPECT_GE(ineff_4, ineff_2 * 0.95);
}

/**
 * Loops that `Loop::validate` rejects, one per message family, so the
 * rejection texts that reach diagnostics and fingerprints are pinned.
 */
std::vector<ir::Loop>
invalidLoops()
{
    std::vector<ir::Loop> loops;
    {
        ir::Loop loop("bad_arity");
        const ir::RegId a = loop.addRegister({"a", false, true});
        const ir::RegId d = loop.addRegister({"d", false, false});
        ir::Operation op;
        op.opcode = ir::Opcode::kAdd;
        op.dest = d;
        op.sources = {ir::Operand::makeReg(a)};
        loop.addOperation(op);
        loops.push_back(loop);
    }
    {
        ir::Loop loop("bad_seed");
        const ir::RegId x = loop.addRegister({"x", false, false});
        ir::Operation op;
        op.opcode = ir::Opcode::kCopy;
        op.dest = x;
        op.sources = {ir::Operand::makeReg(x, 1)};
        loop.addOperation(op);
        loops.push_back(loop);
    }
    {
        ir::Loop loop("bad_guard");
        const ir::RegId d = loop.addRegister({"d", false, true});
        const ir::RegId y = loop.addRegister({"y", false, false});
        ir::Operation op;
        op.opcode = ir::Opcode::kCopy;
        op.dest = y;
        op.sources = {ir::Operand::makeReg(d)};
        op.guard = ir::Operand::makeReg(d);
        loop.addOperation(op);
        loops.push_back(loop);
    }
    {
        ir::Loop loop("bad_undefined");
        const ir::RegId u = loop.addRegister({"u", false, false});
        const ir::RegId y = loop.addRegister({"y", false, false});
        ir::Operation op;
        op.opcode = ir::Opcode::kCopy;
        op.dest = y;
        op.sources = {ir::Operand::makeReg(u)};
        loop.addOperation(op);
        loops.push_back(loop);
    }
    {
        ir::Loop loop("bad_stride");
        const ir::ArrayId array = loop.addArray({"A"});
        const ir::RegId a = loop.addRegister({"a", false, true});
        const ir::RegId d = loop.addRegister({"d", false, false});
        ir::Operation op;
        op.opcode = ir::Opcode::kLoad;
        op.dest = d;
        op.sources = {ir::Operand::makeReg(a)};
        op.memRef = ir::MemRef{array, 0, 0};
        loop.addOperation(op);
        loops.push_back(loop);
    }
    return loops;
}

/** Fold one pipeline() call into `digest`: its fingerprint and listing. */
void
digestPipeline(support::Fnv1a& digest,
               const core::SoftwarePipeliner& pipeliner, const ir::Loop& loop)
{
    const core::PipelineResult result =
        pipeliner.pipeline(core::PipelineRequest(loop));
    digest.update(
        service::fingerprintResult(loop, pipeliner.machine(), result));
    if (result.ok()) {
        digest.update(codegen::emitListing(loop, result.artifacts->code,
                                           result.artifacts->registers));
    }
}

/**
 * Cross-commit identity: one FNV digest per stock machine over the
 * result fingerprint (which covers the report: kernel rows, MVE plan,
 * register allocation, minimum schedule length, diagnostics) and the
 * full emitted listing of every kernel-library loop, the unroll ladder
 * (daxpy, stencil3 and hydro_frag unrolled to about 75/300/600 ops),
 * loops `validate` rejects and loops whose lifetimes overflow
 * (codegen.too_large). A fifth digest runs the kernel library on a
 * machine that implements only `add` and `load`, so the graph builder's
 * unsupported-opcode texts are pinned as well. The values were recorded
 * before the non-scheduling layers of pipeline() were made linear; a
 * change here means an output, a counter or a message text changed.
 */
TEST(GoldenTest, PipelineOutputsArePinned)
{
    std::vector<ir::Loop> loops = test_loops::kernelLoops();
    for (auto& loop : test_loops::unrollLadder())
        loops.push_back(std::move(loop));
    for (auto& loop : invalidLoops())
        loops.push_back(std::move(loop));
    loops.push_back(ir::parseLoop("loop too_large_live\n"
                                  "recurrence n\n"
                                  "n = asub n[2000000000], #3\n"
                                  "recurrence m\n"
                                  "m = asub m[2000000000], #3\n"));
    loops.push_back(ir::parseLoop("loop too_large_end\n"
                                  "recurrence x\n"
                                  "x = asub x[1500000000], #3\n"
                                  "recurrence y\n"
                                  "y = asub y[1500000000], #3\n"));

    // One digest per test_loops::stockMachines() entry, in its order.
    const std::uint64_t want[] = {
        0x786bc05e77b6d2e0ULL, // cydra5
        0x97b7826c8b85e6dbULL, // clean64
        0x9ee8fe3c49f00d00ULL, // wide-vliw
        0x6b800e9565c4564aULL, // scalar-toy
    };
    const auto machines = test_loops::stockMachines();
    ASSERT_EQ(machines.size(), std::size(want));
    for (std::size_t m = 0; m < machines.size(); ++m) {
        const core::SoftwarePipeliner pipeliner(machines[m]);
        support::Fnv1a digest;
        for (const auto& loop : loops)
            digestPipeline(digest, pipeliner, loop);
        EXPECT_EQ(digest.digest(), want[m])
            << machines[m].name() << ": 0x" << std::hex << digest.digest();
    }

    const core::SoftwarePipeliner partial(
        machine::parseMachine("machine add_load\n"
                              "resource alu\n"
                              "opcode add 1\n"
                              "alt a 0:alu\n"
                              "opcode load 2\n"
                              "alt l 0:alu\n"));
    support::Fnv1a digest;
    for (const auto& loop : test_loops::kernelLoops())
        digestPipeline(digest, partial, loop);
    EXPECT_EQ(digest.digest(), 0x4e8ebaa4e5294e8dULL)
        << "add_load: 0x" << std::hex << digest.digest();
}

/**
 * Cross-commit identity of the work done: one FNV digest per stock
 * machine over every support::Counters field pipeline() reports for each
 * kernel-library loop, ladder rung and §4.1 corpus loop. The values were
 * recorded before the MinDist closure and the list schedule stopped
 * scanning cells and cycles that cannot change their answer; a change
 * here means some layer counts different work.
 */
TEST(GoldenTest, PipelineCountersArePinned)
{
    static_assert(sizeof(support::Counters) == 12 * sizeof(std::uint64_t),
                  "fold the new Counters field into the digest below");
    const std::vector<ir::Loop> loops = test_loops::referenceLoops();

    // One digest per test_loops::stockMachines() entry, in its order.
    const std::uint64_t want[] = {
        0x4382f0be56525159ULL, // cydra5
        0x23f5c9cdf45c86a7ULL, // clean64
        0x5c83a979c4274c1bULL, // wide-vliw
        0xa1308c063913e96eULL, // scalar-toy
    };
    const auto machines = test_loops::stockMachines();
    ASSERT_EQ(machines.size(), std::size(want));
    for (std::size_t m = 0; m < machines.size(); ++m) {
        const core::SoftwarePipeliner pipeliner(machines[m]);
        support::Fnv1a digest;
        for (const auto& loop : loops) {
            const support::Counters c =
                pipeliner.pipeline(core::PipelineRequest(loop))
                    .telemetry.counters;
            for (const std::uint64_t field :
                 {c.sccEdgeVisits, c.resMiiInspections, c.minDistInnerSteps,
                  c.minDistInvocations, c.heightRInnerSteps,
                  c.estartPredecessorVisits, c.estartIncrementalHits,
                  c.findTimeSlotProbes, c.scheduleSteps, c.unscheduleSteps,
                  c.mrtMaskProbes, c.mrtSlotScans})
                digest.update(field);
        }
        EXPECT_EQ(digest.digest(), want[m])
            << machines[m].name() << ": 0x" << std::hex << digest.digest();
    }
}

/**
 * Cross-commit identity of the structural verifier: one FNV digest per
 * stock machine over every violation verifySchedule reports on seeded
 * corruptions of each kernel-library schedule. Each case moves 1-6 ops
 * to a random alternative and a random time from two cycles below zero
 * to the schedule length, and every tenth case also halves the II, so
 * that block reservations collide with themselves. The values were
 * recorded while the verifier still rebuilt the schedulers' modulo
 * reservation table; a change here means a violation, its order or one
 * of its fields changed.
 */
TEST(GoldenTest, VerifierViolationsArePinned)
{
    constexpr int kCasesPerLoop = 90;
    const std::vector<ir::Loop> loops = test_loops::kernelLoops();

    // One digest per test_loops::stockMachines() entry, in its order.
    const std::uint64_t want[] = {
        0x7631b199cd0589fdULL, // cydra5
        0x489415350db71e12ULL, // clean64
        0xf4f72f368eb1c58cULL, // wide-vliw
        0x2428224f3c424b38ULL, // scalar-toy
    };
    const auto machines = test_loops::stockMachines();
    ASSERT_EQ(machines.size(), std::size(want));
    int seen[static_cast<int>(sched::ViolationKind::kResourceConflict) + 1] =
        {};
    for (std::size_t m = 0; m < machines.size(); ++m) {
        const core::SoftwarePipeliner pipeliner(machines[m]);
        support::Rng rng(20261019 + m);
        support::Fnv1a digest;
        for (const auto& loop : loops) {
            const core::PipelineResult result =
                pipeliner.pipeline(core::PipelineRequest(loop));
            if (!result.ok())
                continue;
            const graph::DepGraph& graph = result.artifacts->depGraph;
            const sched::ScheduleResult& base =
                result.artifacts->outcome.schedule;
            for (int c = 0; c < kCasesPerLoop; ++c) {
                sched::ScheduleResult bad = base;
                if (c % 10 == 9)
                    bad.ii = std::max(1, bad.ii / 2);
                const int moves = rng.uniformInt(1, 6);
                for (int k = 0; k < moves; ++k) {
                    const int op = rng.uniformInt(0, loop.size() - 1);
                    const int alternatives = static_cast<int>(
                        machines[m]
                            .info(loop.operation(op).opcode)
                            .alternatives.size());
                    bad.alternatives[op] =
                        rng.uniformInt(0, alternatives - 1);
                    bad.times[op] = rng.uniformInt(-2, bad.scheduleLength);
                }
                for (const sched::Violation& v :
                     sched::verifySchedule(loop, machines[m], graph, bad)) {
                    ++seen[static_cast<int>(v.kind)];
                    for (const std::int64_t field :
                         {static_cast<std::int64_t>(v.kind),
                          static_cast<std::int64_t>(v.op),
                          static_cast<std::int64_t>(v.other),
                          static_cast<std::int64_t>(v.edge),
                          static_cast<std::int64_t>(v.time),
                          static_cast<std::int64_t>(v.required)})
                        digest.update(static_cast<std::uint64_t>(field));
                }
            }
        }
        EXPECT_EQ(digest.digest(), want[m])
            << machines[m].name() << ": 0x" << std::hex << digest.digest();
    }
    for (const auto kind :
         {sched::ViolationKind::kNegativeTime, sched::ViolationKind::kDependence,
          sched::ViolationKind::kSelfConflict,
          sched::ViolationKind::kResourceConflict}) {
        EXPECT_GT(seen[static_cast<int>(kind)], 0)
            << sched::violationKindName(kind);
    }
}

/** Fold a simulated value into `digest` by its bit pattern. */
void
digestValue(support::Fnv1a& digest, sim::Value value)
{
    digest.update(std::bit_cast<std::uint64_t>(value));
}

/**
 * Fold one engine's final state: the executed iterations, every memory
 * cell including the margin, and every final register.
 */
void
digestSimState(support::Fnv1a& digest, const ir::Loop& loop,
               const sim::SimSpec& spec, const sim::SimResult& state)
{
    const int cells =
        loop.maxStride() * spec.tripCount + 2 * spec.margin;
    digest.update(static_cast<std::uint64_t>(state.executedIterations));
    for (ir::ArrayId array = 0; array < loop.numArrays(); ++array) {
        for (const sim::Value value :
             state.memory.snapshot(array, -spec.margin, cells))
            digestValue(digest, value);
    }
    for (const auto& [name, value] : state.finalRegisters) {
        digest.update(name);
        digestValue(digest, value);
    }
}

/** Fold the state `run()` returns, or the text of the error it throws. */
template <typename Run>
void
digestEngine(support::Fnv1a& digest, std::string_view engine,
             const ir::Loop& loop, const sim::SimSpec& spec, Run&& run)
{
    digest.update(engine);
    try {
        digestSimState(digest, loop, spec, run());
    } catch (const std::exception& error) {
        digest.update(std::string_view(error.what()));
    }
}

void
digestProgramState(support::Fnv1a& digest, const program::ProgramState& state)
{
    digest.update(static_cast<std::uint64_t>(state.loopIterations));
    for (const auto& [name, value] : state.variables) {
        digest.update(name);
        digestValue(digest, value);
    }
    for (const auto& [name, cells] : state.arrays) {
        digest.update(name);
        for (const auto& [index, value] : cells) {
            digest.update(static_cast<std::uint64_t>(index));
            digestValue(digest, value);
        }
    }
}

/**
 * Cross-commit identity of the simulators: one FNV digest per stock
 * machine. For every kernel-library loop, and two loops that load and
 * store one cell in the same cycle, it covers the kernel-only listing
 * and the final state of runSequential, runPipelined (with its cycle
 * count), runGeneratedCode (trip >= stage count) and runKernelOnly
 * (DO-loops) at trips {0, 1, 2, 5, 17} on makeSimSpec inputs. For every
 * corpus program, compiled with and without compression, it covers the
 * listing and runProgramCompiled's final state at the same trips. The
 * sim oracle compares each engine with the sequential reference, so a
 * fault in a set-up or read-out that both sides share does not show
 * there; it changes these digests. The values were recorded while every
 * engine still had its own set-up, step and read-out.
 */
TEST(GoldenTest, SimulatorStatesArePinned)
{
    constexpr int kTrips[] = {0, 1, 2, 5, 17};
    constexpr std::uint64_t kSeed = 23;
    // The kernel library and two loops whose load and store of one cell
    // can issue in the same cycle, where the store must commit after it.
    std::vector<ir::Loop> loops = test_loops::kernelLoops();
    for (const char* text :
         {"loop overwrite\nlivein k\nrecurrence ax\nax = aadd ax[1], #8\n"
          "xv = load ax @ X 0\n_ = store ax, k @ X 0\ny = mul xv, k\n"
          "_ = store ax, y @ Y 0\n",
          "loop shift\nlivein k\nrecurrence ax\nax = aadd ax[1], #8\n"
          "xv = load ax @ X 1\n_ = store ax, k @ X 0\ny = add xv, k\n"
          "_ = store ax, y @ Y 0\n"})
        loops.push_back(ir::parseLoop(text));
    const auto programs = workloads::programLibrary();

    // One digest per test_loops::stockMachines() entry, in its order.
    const std::uint64_t want[] = {
        0x7b4651849caab849ULL, // cydra5
        0xaa31fe0b36412b3bULL, // clean64
        0xd47b0850646c7a28ULL, // wide-vliw
        0xbd21fb67617c5130ULL, // scalar-toy
    };
    const auto machines = test_loops::stockMachines();
    ASSERT_EQ(machines.size(), std::size(want));
    for (std::size_t m = 0; m < machines.size(); ++m) {
        const core::SoftwarePipeliner pipeliner(machines[m]);
        support::Fnv1a digest;
        for (const auto& loop : loops) {
            const core::PipelineResult result =
                pipeliner.pipeline(core::PipelineRequest(loop));
            if (!result.ok()) {
                digest.update(result.firstError());
                continue;
            }
            const core::PipelineArtifacts& artifacts = *result.artifacts;
            digest.update(codegen::emitKernelOnly(loop, artifacts.code));
            const bool has_exit = loop.hasEarlyExit();
            for (const int trip : kTrips) {
                const sim::SimSpec spec =
                    workloads::makeSimSpec(loop, trip, kSeed);
                digestEngine(digest, "sequential", loop, spec, [&] {
                    return sim::runSequential(loop, spec);
                });
                digestEngine(digest, "pipelined", loop, spec, [&] {
                    sim::PipelineResult run = sim::runPipelined(
                        loop, artifacts.outcome.schedule, spec);
                    digest.update(static_cast<std::uint64_t>(run.cycles));
                    return std::move(run.state);
                });
                if (!has_exit && trip >= artifacts.code.kernel.stageCount) {
                    digestEngine(digest, "generated_code", loop, spec, [&] {
                        return sim::runGeneratedCode(loop, artifacts.code,
                                                     spec);
                    });
                }
                if (!has_exit) {
                    digestEngine(digest, "kernel_only", loop, spec, [&] {
                        return sim::runKernelOnly(loop, artifacts.code,
                                                  spec);
                    });
                }
            }
        }
        for (const auto& workload : programs) {
            for (const bool compress : {true, false}) {
                const program::ProgramCompiler compiler(
                    machines[m],
                    program::ProgramOptions{}.withCompression(compress));
                const auto result = compiler.compile(workload.program);
                if (!result.ok()) {
                    digest.update(result.firstError());
                    continue;
                }
                digest.update(program::emitProgram(*result.compiled));
                for (const int trip : kTrips) {
                    try {
                        digestProgramState(
                            digest,
                            program::runProgramCompiled(
                                *result.compiled,
                                program::makeProgramSpec(workload.program,
                                                         trip, kSeed)));
                    } catch (const std::exception& error) {
                        digest.update(std::string_view(error.what()));
                    }
                }
            }
        }
        EXPECT_EQ(digest.digest(), want[m])
            << machines[m].name() << ": 0x" << std::hex << digest.digest();
    }
}

} // namespace
