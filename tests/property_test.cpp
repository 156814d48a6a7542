#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/pipeliner.hpp"
#include "sched/attempt.hpp"
#include "sched/iterative_scheduler.hpp"
#include "sched/mrt.hpp"
#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/compiled_reservations.hpp"
#include "machine/cydra5.hpp"
#include "machine/machines.hpp"
#include "mii/mii.hpp"
#include "mii/rec_mii.hpp"
#include "sched/verifier.hpp"
#include "sim/pipeline_simulator.hpp"
#include "sim/sequential_interpreter.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace ims;

machine::MachineModel
machineByName(const std::string& name)
{
    if (name == "cydra5")
        return machine::cydra5();
    if (name == "clean64")
        return machine::clean64();
    if (name == "wide-vliw")
        return machine::wideVliw();
    return machine::scalarToy();
}

std::vector<std::string>
kernelNames()
{
    std::vector<std::string> names;
    for (const auto& w : workloads::kernelLibrary())
        names.push_back(w.loop.name());
    return names;
}

/**
 * Invariant sweep over (kernel, machine): every schedule the pipeliner
 * produces is verified legal, II and SL respect their lower bounds, and
 * executing the pipelined schedule is bit-identical to the sequential
 * reference.
 */
class KernelMachineProperty
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(KernelMachineProperty, ScheduleLegalAndSemanticsPreserved)
{
    const auto [kernel_name, machine_name] = GetParam();
    const auto machine = machineByName(machine_name);
    const auto w = workloads::kernelByName(kernel_name);

    core::SoftwarePipeliner pipeliner(machine);
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    const auto& schedule = artifacts.outcome.schedule;

    // II bounds.
    EXPECT_GE(schedule.ii, artifacts.outcome.mii);
    EXPECT_GE(artifacts.outcome.mii, artifacts.outcome.resMii);

    // Legality (the pipeliner already verified; double-check here so the
    // property holds even with verify disabled).
    EXPECT_TRUE(sched::verifySchedule(w.loop, machine, artifacts.depGraph,
                                      schedule)
                    .empty());

    // Schedule length within bounds.
    EXPECT_GE(schedule.scheduleLength, artifacts.minScheduleLength);

    // Semantic equivalence at two trip counts (one barely above the stage
    // count, one comfortably larger).
    for (const int trip : {artifacts.code.kernel.stageCount + 1, 37}) {
        const auto spec = workloads::makeSimSpec(w.loop, trip, 1234);
        const auto seq = sim::runSequential(w.loop, spec);
        const auto pipe = sim::runPipelined(w.loop, schedule, spec);
        EXPECT_TRUE(sim::equivalent(seq, pipe.state)) << "trip " << trip;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllMachines, KernelMachineProperty,
    ::testing::Combine(::testing::ValuesIn(kernelNames()),
                       ::testing::Values("cydra5", "clean64", "wide-vliw",
                                         "scalar-toy")),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, std::string>>& info) {
        std::string name = std::get<0>(info.param) + "_on_" +
                           std::get<1>(info.param);
        for (auto& c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

/** Property sweep over random loops: generate, schedule, verify, run. */
class RandomLoopProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomLoopProperty, RandomLoopsScheduleVerifyAndSimulate)
{
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);

    for (int k = 0; k < 25; ++k) {
        const auto loop = workloads::generateLoop(
            rng, "prop_" + std::to_string(GetParam()) + "_" +
                     std::to_string(k));
        const auto artifacts = pipeliner.pipeline(core::PipelineRequest(loop)).artifactsOrThrow();
        EXPECT_TRUE(sched::verifySchedule(loop, machine,
                                          artifacts.depGraph,
                                          artifacts.outcome.schedule)
                        .empty())
            << loop.name();

        const auto spec = workloads::makeSimSpec(loop, 20, 99);
        const auto seq = sim::runSequential(loop, spec);
        const auto pipe =
            sim::runPipelined(loop, artifacts.outcome.schedule, spec);
        EXPECT_TRUE(sim::equivalent(seq, pipe.state)) << loop.name();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLoopProperty,
                         ::testing::Range(0, 8));

/**
 * Forced-placement property (§3.4/Figure 4): replay every attempt's trace
 * against a shadow modulo reservation table and check, at each forced
 * placement, that (a) every resource-displaced victim truly held one of
 * the *chosen* alternative's cells at the chosen slot, (b) after evicting
 * exactly those victims the chosen alternative fits, and (c) no MRT cell
 * is ever double-booked during the whole replay.
 */
/** Replays `trace` at `ii`; adds the number of forced placements seen to
 *  `forced_out` (void return so gtest's fatal ASSERTs work inside). */
void
replayTrace(const ir::Loop& loop, const machine::MachineModel& machine,
            const graph::DepGraph& graph,
            const std::vector<sched::TraceEvent>& trace, int ii,
            int& forced_out)
{
    // START and STOP are graph vertices beyond the loop's operations;
    // they reserve nothing (empty table) but do appear in the trace.
    const int resources = machine.numResources();
    const machine::CompiledReservationTable empty_table(
        machine::ReservationTable{}, ii, resources);
    sched::ModuloReservationTable mrt(ii, resources);
    // The table and time each placed vertex reserved, for its release.
    std::vector<machine::CompiledReservationTable> held(
        static_cast<std::size_t>(graph.numVertices()), empty_table);
    std::vector<int> held_at(static_cast<std::size_t>(graph.numVertices()),
                             0);
    std::vector<bool> placed(static_cast<std::size_t>(graph.numVertices()),
                             false);
    placed[static_cast<std::size_t>(graph.start())] = true; // empty table
    int forced = 0;
    std::vector<int> holders;

    const auto contains = [](const std::vector<graph::VertexId>& ops,
                             graph::VertexId op) {
        return std::find(ops.begin(), ops.end(), op) != ops.end();
    };
    const auto release = [&](graph::VertexId victim) {
        mrt.release(victim, held[victim], held_at[victim]);
        placed[victim] = false;
    };

    for (const auto& event : trace) {
        machine::CompiledReservationTable table = empty_table;
        if (!graph.isPseudo(event.op)) {
            const auto& alternatives =
                machine.info(loop.operation(event.op).opcode).alternatives;
            ASSERT_GE(event.alternative, 0) << loop.name();
            ASSERT_LT(event.alternative,
                      static_cast<int>(alternatives.size()))
                << loop.name();
            table = machine::CompiledReservationTable(
                alternatives[event.alternative].table, ii, resources);
        }
        // Two uses of the chosen alternative in one cell would double-book
        // it on their own.
        ASSERT_FALSE(table.selfConflicts()) << loop.name();

        if (event.forced) {
            ++forced;
            for (graph::VertexId victim : event.resourceDisplaced) {
                EXPECT_TRUE(contains(event.displaced, victim))
                    << loop.name();
                ASSERT_TRUE(placed[victim]) << loop.name();
                // (a) The victim holds a cell the chosen alternative needs.
                mrt.conflictingOps(table, event.slot, holders);
                EXPECT_TRUE(std::find(holders.begin(), holders.end(),
                                      victim) != holders.end())
                    << loop.name() << ": op " << victim
                    << " displaced without conflicting at slot "
                    << event.slot;
                release(victim);
            }
            // (b) Evicting exactly those victims freed the alternative.
            EXPECT_FALSE(mrt.conflicts(table, event.slot))
                << loop.name() << ": chosen alternative still blocked";
        }

        // (c) Conflict-free at reserve time, forced or not; reserving on
        // a conflict would double-book a cell.
        ASSERT_FALSE(mrt.conflicts(table, event.slot)) << loop.name();
        mrt.reserve(event.op, table, event.slot);
        held[event.op] = std::move(table);
        held_at[event.op] = event.slot;
        placed[event.op] = true;

        // Dependence-displaced successors leave the table after the
        // placement (scheduleAt displaces them once `op` is in place).
        for (graph::VertexId victim : event.displaced) {
            if (contains(event.resourceDisplaced, victim))
                continue;
            ASSERT_TRUE(placed[victim]) << loop.name();
            release(victim);
        }
    }
    forced_out += forced;
}

/** Schedules `loop` along the production II sequence, replaying every
 *  attempt's trace (failed attempts exercise forced placement hardest). */
void
sweepAndReplay(const ir::Loop& loop, const machine::MachineModel& machine,
               int& forced_total)
{
    const auto g = graph::buildDepGraph(loop, machine);
    const auto sccs = graph::findSccs(g);
    const auto mii = mii::computeMii(loop, machine, g, sccs);
    bool scheduled = false;
    for (int ii = mii.mii; ii < mii.mii + 40 && !scheduled; ++ii) {
        std::vector<sched::TraceEvent> trace;
        sched::IterativeScheduleOptions options;
        options.trace = &trace;
        sched::IterativeScheduler scheduler(loop, machine, g, sccs,
                                            options);
        scheduled =
            scheduler.trySchedule(ii, 2 * (loop.size() + 2))
                .schedule.has_value();
        replayTrace(loop, machine, g, trace, ii, forced_total);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_TRUE(scheduled) << loop.name();
}

TEST(ForcedPlacementProperty, DisplacedVictimsConflictAndChosenAltFits)
{
    const auto machine = machine::cydra5();
    int forced_total = 0;
    for (const auto& w : workloads::kernelLibrary()) {
        sweepAndReplay(w.loop, machine, forced_total);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // Resource-saturated random loops are what actually drive FindTimeSlot
    // to fail across a whole II window (this seed deterministically
    // produces several forcing loops, so the property is non-vacuous).
    support::Rng rng(42);
    for (int k = 0; k < 40; ++k) {
        const auto loop =
            workloads::generateLoop(rng, "forced_" + std::to_string(k));
        sweepAndReplay(loop, machine, forced_total);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(forced_total, 0);
}

/**
 * RecMII agreement property on random loops: circuit enumeration and the
 * per-SCC MinDist search must produce the same bound.
 */
class RecMiiAgreementProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RecMiiAgreementProperty, CircuitsAgreeWithMinDist)
{
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
    const auto machine = machine::cydra5();
    for (int k = 0; k < 25; ++k) {
        const auto loop = workloads::generateLoop(rng, "rm");
        const auto g = graph::buildDepGraph(loop, machine);
        const auto sccs = graph::findSccs(g);
        const int per_scc = mii::computeRecMiiPerScc(g, sccs, 1);
        const int circuits = mii::computeRecMiiFromCircuits(g);
        EXPECT_EQ(per_scc, circuits) << loop.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecMiiAgreementProperty,
                         ::testing::Range(0, 4));

/**
 * BudgetRatio monotonicity-ish property: a generous budget never yields a
 * worse II than the same scheduler with a tight budget.
 */
class BudgetProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(BudgetProperty, LargerBudgetNeverWorsensIi)
{
    support::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
    const auto machine = machine::cydra5();
    for (int k = 0; k < 10; ++k) {
        const auto loop = workloads::generateLoop(rng, "b");
        const auto g = graph::buildDepGraph(loop, machine);
        const auto sccs = graph::findSccs(g);
        sched::ScheduleOptions tight;
        tight.search.budgetRatio = 1.0;
        sched::ScheduleOptions generous;
        generous.search.budgetRatio = 8.0;
        const auto a = sched::schedule(loop, machine, g, sccs, tight);
        const auto b =
            sched::schedule(loop, machine, g, sccs, generous);
        EXPECT_LE(b.schedule.ii, a.schedule.ii) << loop.name();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetProperty, ::testing::Range(0, 4));

} // namespace
