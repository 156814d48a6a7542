#include <gtest/gtest.h>

#include "fuzz/machine_gen.hpp"
#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/cydra5.hpp"
#include "sched/exact_scheduler.hpp"
#include "sched/schedule.hpp"
#include "sched/verifier.hpp"
#include "sim/pipeline_simulator.hpp"
#include "sim/sequential_interpreter.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace ims;

sched::ScheduleOptions
exactOptions()
{
    sched::ScheduleOptions options;
    options.strategy = sched::SchedulerStrategy::kExact;
    return options;
}

/** Acceptance: the exact backend decides every kernel-corpus loop within
 *  the default node budget, proving II = MII on cydra5 (every failed
 *  candidate below the winner is a kInfeasible proof, never a budget
 *  exhaustion). */
TEST(ExactSchedulerTest, KernelCorpusProvesOptimalIi)
{
    const auto machine = machine::cydra5();
    const auto options = exactOptions();
    for (const auto& w : workloads::kernelLibrary()) {
        const auto g = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(g);
        const auto outcome =
            sched::schedule(w.loop, machine, g, sccs, options);
        EXPECT_EQ(outcome.scheduler, "exact") << w.loop.name();
        EXPECT_EQ(outcome.schedule.ii, outcome.mii) << w.loop.name();
        EXPECT_EQ(outcome.search.attemptsProvenInfeasible, 0)
            << w.loop.name();
        const auto violations = sched::verifySchedule(
            w.loop, machine, g, outcome.schedule);
        ASSERT_TRUE(violations.empty())
            << w.loop.name() << ": " << violations.front().toString();
    }
}

/** Cross-backend property over random loops: wherever the exact search
 *  completes within a reduced budget, its II is a proven optimum, so it
 *  never exceeds the iterative backend's II, and the schedule itself
 *  must pass the structural verifier and sequential-vs-pipelined
 *  simulation at several trip counts. */
TEST(ExactSchedulerTest, CrossBackendPropertyOnFuzzLoops)
{
    const auto machine = machine::cydra5();
    const auto profile = workloads::fuzzProfile();
    sched::ScheduleOptions iterative;
    auto exact = exactOptions();
    exact.exactNodeBudget = 100000;

    support::Rng rng(20260806);
    int decided = 0, skipped = 0;
    for (int k = 0; k < 200; ++k) {
        const auto loop = workloads::generateLoop(
            rng, "xbk_" + std::to_string(k), profile);
        const auto g = graph::buildDepGraph(loop, machine);
        const auto sccs = graph::findSccs(g);
        const auto heuristic =
            sched::schedule(loop, machine, g, sccs, iterative);

        sched::ModuloScheduleOutcome outcome;
        try {
            outcome = sched::schedule(loop, machine, g, sccs, exact);
        } catch (const support::CodedError& error) {
            ASSERT_EQ(error.code(), "exact.budget_exhausted")
                << loop.name();
            ++skipped; // undecided within the reduced budget
            continue;
        }
        ++decided;
        EXPECT_GE(outcome.schedule.ii, outcome.mii) << loop.name();
        EXPECT_LE(outcome.schedule.ii, heuristic.schedule.ii)
            << loop.name();
        const auto violations =
            sched::verifySchedule(loop, machine, g, outcome.schedule);
        ASSERT_TRUE(violations.empty())
            << loop.name() << ": " << violations.front().toString();
        for (const int trips : {0, 1, 2, 5, 17}) {
            const auto spec = workloads::makeSimSpec(loop, trips, 77);
            const auto seq = sim::runSequential(loop, spec);
            const auto pipe =
                sim::runPipelined(loop, outcome.schedule, spec);
            EXPECT_TRUE(sim::equivalent(seq, pipe.state))
                << loop.name() << " at " << trips << " trips";
        }
    }
    // The reduced budget decides the overwhelming majority of the
    // corpus; if this drops, the backend (or the budget accounting)
    // regressed.
    EXPECT_GE(decided, 150) << "skipped " << skipped;
}

/** A deterministic random machine where the MII is provably infeasible:
 *  the exact backend must refute II = 4 and settle at 5, counting the
 *  refutation in attemptsProvenInfeasible. */
TEST(ExactSchedulerTest, ProvesMiiInfeasibleOnAdversarialMachine)
{
    support::Rng rng(777013);
    const auto machine = fuzz::generateMachine(rng, "m13");
    const auto loop =
        workloads::generateLoop(rng, "gap_13", workloads::fuzzProfile());
    const auto g = graph::buildDepGraph(loop, machine);
    const auto sccs = graph::findSccs(g);
    const auto outcome =
        sched::schedule(loop, machine, g, sccs, exactOptions());
    EXPECT_EQ(outcome.mii, 4);
    EXPECT_EQ(outcome.schedule.ii, 5);
    EXPECT_EQ(outcome.search.attemptsProvenInfeasible, 1);
    ASSERT_EQ(outcome.search.records.size(), 2u);
    EXPECT_EQ(outcome.search.records[0].status,
              sched::AttemptStatus::kInfeasible);
    EXPECT_EQ(outcome.search.records[1].status,
              sched::AttemptStatus::kScheduled);
    EXPECT_TRUE(
        sched::verifySchedule(loop, machine, g, outcome.schedule).empty());
}

/** Direct unit test of the decision statuses: an II below feasibility is
 *  *proven* infeasible, and a tiny budget reports exhaustion, not
 *  infeasibility. */
TEST(ExactSchedulerTest, TryScheduleStatuses)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("daxpy");
    const auto g = graph::buildDepGraph(w.loop, machine);
    const auto sccs = graph::findSccs(g);
    sched::ExactScheduler scheduler(w.loop, machine, g, sccs);

    const auto infeasible =
        scheduler.trySchedule(1, sched::kDefaultExactNodeBudget);
    EXPECT_FALSE(infeasible.schedule.has_value());
    EXPECT_EQ(infeasible.status, sched::AttemptStatus::kInfeasible);

    const auto feasible =
        scheduler.trySchedule(2, sched::kDefaultExactNodeBudget);
    ASSERT_TRUE(feasible.schedule.has_value());
    EXPECT_EQ(feasible.status, sched::AttemptStatus::kScheduled);
    EXPECT_EQ(feasible.schedule->ii, 2);
    // The outcome's counters are this attempt's own node count.
    EXPECT_EQ(feasible.counters.scheduleSteps,
              static_cast<std::uint64_t>(feasible.schedule->stepsUsed));

    const auto exhausted = scheduler.trySchedule(2, 1);
    EXPECT_FALSE(exhausted.schedule.has_value());
    EXPECT_EQ(exhausted.status, sched::AttemptStatus::kBudgetExhausted);
    EXPECT_EQ(exhausted.counters.scheduleSteps, 2u);
}

/** Driver-level budget exhaustion surfaces as the coded error the tools
 *  and the fuzz oracle key on. */
TEST(ExactSchedulerTest, BudgetExhaustionThrowsCodedError)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("daxpy");
    const auto g = graph::buildDepGraph(w.loop, machine);
    const auto sccs = graph::findSccs(g);
    auto options = exactOptions();
    options.exactNodeBudget = 1;
    try {
        sched::schedule(w.loop, machine, g, sccs, options);
        FAIL() << "expected exact.budget_exhausted";
    } catch (const support::CodedError& error) {
        EXPECT_EQ(error.code(), "exact.budget_exhausted");
    }
}

} // namespace
