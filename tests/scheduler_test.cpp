#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/cydra5.hpp"
#include "machine/machines.hpp"
#include "mii/mii.hpp"
#include "sched/attempt.hpp"
#include "sched/iterative_scheduler.hpp"
#include "sched/schedule.hpp"
#include "sched/verifier.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;

struct Context
{
    ir::Loop loop;
    machine::MachineModel machine;
    graph::DepGraph graph;
    graph::SccResult sccs;
    mii::MiiResult mii;

    explicit Context(const std::string& kernel,
                     machine::MachineModel m = machine::cydra5())
        : loop(workloads::kernelByName(kernel).loop),
          machine(std::move(m)),
          graph(graph::buildDepGraph(loop, machine)),
          sccs(graph::findSccs(graph)),
          mii(mii::computeMii(loop, machine, graph, sccs))
    {
    }
};

TEST(IterativeSchedulerTest, SchedulesDaxpyAtMii)
{
    Context ctx("daxpy");
    sched::IterativeScheduler scheduler(ctx.loop, ctx.machine, ctx.graph,
                                        ctx.sccs);
    const auto result = scheduler.trySchedule(ctx.mii.mii, 1000).schedule;
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->ii, ctx.mii.mii);
    EXPECT_TRUE(
        sched::verifySchedule(ctx.loop, ctx.machine, ctx.graph, *result)
            .empty());
}

TEST(IterativeSchedulerTest, FailsBelowRecMii)
{
    Context ctx("first_order_rec"); // MII = 9 from the recurrence
    sched::IterativeScheduler scheduler(ctx.loop, ctx.machine, ctx.graph,
                                        ctx.sccs);
    // At II = MII - 1 the HeightR computation must detect the positive
    // cycle (II below RecMII is structurally impossible).
    EXPECT_THROW(scheduler.trySchedule(ctx.mii.mii - 1, 1000),
                 support::Error);
}

TEST(IterativeSchedulerTest, TinyBudgetFails)
{
    Context ctx("fat_loop");
    sched::IterativeScheduler scheduler(ctx.loop, ctx.machine, ctx.graph,
                                        ctx.sccs);
    const auto out = scheduler.trySchedule(ctx.mii.mii, 3);
    EXPECT_FALSE(out.schedule.has_value());
    EXPECT_EQ(out.status, sched::AttemptStatus::kBudgetExhausted);
    // The outcome's counters are this attempt's own: START plus two steps.
    EXPECT_EQ(out.counters.scheduleSteps, 3u);
}

TEST(IterativeSchedulerTest, BudgetExhaustionRecoversAtLargerIi)
{
    Context ctx("div_kernel");
    sched::ScheduleOptions options;
    options.search.budgetRatio = 2.0;
    const auto outcome = sched::schedule(ctx.loop, ctx.machine, ctx.graph,
                                         ctx.sccs, options);
    EXPECT_GE(outcome.schedule.ii, outcome.mii);
    EXPECT_TRUE(sched::verifySchedule(ctx.loop, ctx.machine, ctx.graph,
                                      outcome.schedule)
                    .empty());
}

TEST(IterativeSchedulerTest, StepsAndUnschedulesReported)
{
    Context ctx("daxpy");
    sched::IterativeScheduler scheduler(ctx.loop, ctx.machine, ctx.graph,
                                        ctx.sccs);
    const auto result = scheduler.trySchedule(ctx.mii.mii, 1000).schedule;
    ASSERT_TRUE(result.has_value());
    // At minimum every op plus START and STOP is scheduled once.
    EXPECT_GE(result->stepsUsed, ctx.loop.size() + 2);
    EXPECT_GE(result->unschedules, 0);
}

TEST(IterativeSchedulerTest, ScheduleLengthCoversEveryCompletion)
{
    Context ctx("hydro_frag");
    sched::IterativeScheduler scheduler(ctx.loop, ctx.machine, ctx.graph,
                                        ctx.sccs);
    const auto result = scheduler.trySchedule(ctx.mii.mii, 1000).schedule;
    ASSERT_TRUE(result.has_value());
    int max_completion = 0;
    for (int op = 0; op < ctx.loop.size(); ++op) {
        max_completion = std::max(
            max_completion,
            result->times[op] +
                ctx.machine.latency(ctx.loop.operation(op).opcode));
    }
    // STOP's schedule time is at least every op's completion; when the
    // final STOP placement happened with all ops in place it is exact.
    EXPECT_GE(result->scheduleLength, max_completion);
}

TEST(ModuloSchedulerTest, AllKernelsScheduleAndVerify)
{
    const auto machine = machine::cydra5();
    for (const auto& w : workloads::kernelLibrary()) {
        const auto graph = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(graph);
        const auto outcome = sched::schedule(w.loop, machine, graph, sccs);
        EXPECT_GE(outcome.schedule.ii, outcome.mii) << w.loop.name();
        const auto violations = sched::verifySchedule(
            w.loop, machine, graph, outcome.schedule);
        EXPECT_TRUE(violations.empty())
            << w.loop.name() << ": " << violations.front().toString();
    }
}

TEST(ModuloSchedulerTest, BudgetRatioSixMatchesPaperQualitySetup)
{
    // The paper's quality experiments use BudgetRatio 6; all kernels must
    // reach II = MII with it.
    const auto machine = machine::cydra5();
    sched::ScheduleOptions options;
    options.search.budgetRatio = 6.0;
    for (const auto& w : workloads::kernelLibrary()) {
        const auto graph = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(graph);
        const auto outcome =
            sched::schedule(w.loop, machine, graph, sccs, options);
        EXPECT_EQ(outcome.schedule.ii, outcome.mii) << w.loop.name();
    }
}

TEST(ModuloSchedulerTest, InvalidBudgetRatioRejected)
{
    Context ctx("daxpy");
    sched::ScheduleOptions options;
    options.search.budgetRatio = 0.0;
    EXPECT_THROW(sched::schedule(ctx.loop, ctx.machine, ctx.graph,
                                 ctx.sccs, options),
                 support::Error);
}

TEST(ModuloSchedulerTest, AttemptsCountsCandidateIis)
{
    Context ctx("daxpy");
    const auto outcome =
        sched::schedule(ctx.loop, ctx.machine, ctx.graph, ctx.sccs);
    EXPECT_EQ(outcome.attempts, outcome.schedule.ii - outcome.mii + 1);
}

TEST(ModuloSchedulerTest, PriorityAblationStillProducesLegalSchedules)
{
    const auto machine = machine::cydra5();
    for (const auto scheme :
         {sched::PriorityScheme::kHeightR, sched::PriorityScheme::kSlack,
          sched::PriorityScheme::kSourceOrder,
          sched::PriorityScheme::kRandom}) {
        const auto w = workloads::kernelByName("state_frag");
        const auto graph = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(graph);
        sched::ScheduleOptions options;
        options.priority = scheme;
        // Weak priority functions displace far more (that is the point of
        // the ablation); give them the paper's quality budget.
        options.search.budgetRatio = 6.0;
        const auto outcome =
            sched::schedule(w.loop, machine, graph, sccs, options);
        EXPECT_TRUE(sched::verifySchedule(w.loop, machine, graph,
                                          outcome.schedule)
                        .empty())
            << sched::prioritySchemeName(scheme);
    }
}

TEST(ModuloSchedulerTest, ForwardProgressAblationTerminatesViaBudget)
{
    // Without the forward-progress rule the scheduler may livelock inside
    // one II attempt, but the budget still bounds it and a larger II
    // eventually succeeds.
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("div_kernel");
    const auto graph = graph::buildDepGraph(w.loop, machine);
    const auto sccs = graph::findSccs(graph);
    sched::ScheduleOptions options;
    options.forwardProgressRule = false;
    const auto outcome =
        sched::schedule(w.loop, machine, graph, sccs, options);
    EXPECT_TRUE(sched::verifySchedule(w.loop, machine, graph,
                                      outcome.schedule)
                    .empty());
}

TEST(ModuloSchedulerTest, UnscheduleCountsNoWorseThanSeed)
{
    // Regression guard for the forced-placement displacement rule: the
    // scheduler evicts only the operations holding the *chosen*
    // alternative's resources, so with default production options no
    // kernel may displace more than the pre-fix seed did (captured in
    // bench/data/sched_identity_seed.json; every kernel not listed here
    // was displacement-free).
    const std::map<std::string, std::int64_t> seed_unschedules = {
        {"first_order_rec", 1}, {"argmax_like", 1},      {"horner_rec", 1},
        {"second_order_rec", 2}, {"lfk20_ordinates", 3},
    };
    const auto machine = machine::cydra5();
    for (const auto& w : workloads::kernelLibrary()) {
        const auto graph = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(graph);
        const auto outcome = sched::schedule(w.loop, machine, graph, sccs);
        const auto it = seed_unschedules.find(w.loop.name());
        const std::int64_t allowed =
            it == seed_unschedules.end() ? 0 : it->second;
        EXPECT_LE(outcome.totalUnschedules, allowed) << w.loop.name();
    }
}

TEST(TraceTest, TraceRecordsEveryStepInOrder)
{
    Context ctx("daxpy");
    std::vector<sched::TraceEvent> trace;
    sched::IterativeScheduleOptions options;
    options.trace = &trace;
    sched::IterativeScheduler scheduler(ctx.loop, ctx.machine, ctx.graph,
                                        ctx.sccs, options);
    const auto result = scheduler.trySchedule(ctx.mii.mii, 1000).schedule;
    ASSERT_TRUE(result.has_value());
    // One event per scheduling step except START's implicit placement.
    EXPECT_EQ(static_cast<std::int64_t>(trace.size()) + 1,
              result->stepsUsed);
    int prev_step = 0;
    for (const auto& event : trace) {
        EXPECT_GT(event.step, prev_step);
        prev_step = event.step;
        EXPECT_GE(event.slot, event.estart);
        EXPECT_EQ(event.maxTime, event.minTime + ctx.mii.mii - 1);
        if (!event.forced) {
            EXPECT_LE(event.slot, event.maxTime);
        }
    }
}

TEST(TraceTest, ForcedPlacementsRecordDisplacements)
{
    // A recurrence-tight loop at II = MII needs displacement (the
    // divide's blocked stage collides with the recurrence window).
    Context ctx("lfk20_ordinates");
    std::vector<sched::TraceEvent> trace;
    sched::IterativeScheduleOptions options;
    options.trace = &trace;
    sched::IterativeScheduler scheduler(ctx.loop, ctx.machine, ctx.graph,
                                        ctx.sccs, options);
    scheduler.trySchedule(ctx.mii.mii, 6 * (ctx.loop.size() + 2));
    bool any_displacement = false;
    for (const auto& event : trace)
        any_displacement = any_displacement || !event.displaced.empty();
    EXPECT_TRUE(any_displacement);
}

TEST(VerifierTest, DetectsDependenceViolation)
{
    Context ctx("daxpy");
    sched::IterativeScheduler scheduler(ctx.loop, ctx.machine, ctx.graph,
                                        ctx.sccs);
    auto result = scheduler.trySchedule(ctx.mii.mii, 1000).schedule;
    ASSERT_TRUE(result.has_value());
    // Corrupt: move the store (a consumer) to time 0.
    for (int op = 0; op < ctx.loop.size(); ++op) {
        if (ctx.loop.operation(op).isStore())
            result->times[op] = 0;
    }
    EXPECT_FALSE(
        sched::verifySchedule(ctx.loop, ctx.machine, ctx.graph, *result)
            .empty());
}

TEST(VerifierTest, DetectsResourceConflict)
{
    Context ctx("multi_array");
    sched::IterativeScheduler scheduler(ctx.loop, ctx.machine, ctx.graph,
                                        ctx.sccs);
    auto result = scheduler.trySchedule(ctx.mii.mii, 1000).schedule;
    ASSERT_TRUE(result.has_value());
    // Force every load onto alternative 0: the memory port double-books.
    int loads = 0;
    for (int op = 0; op < ctx.loop.size(); ++op) {
        if (ctx.loop.operation(op).isLoad()) {
            result->alternatives[op] = 0;
            result->times[op] = 0;
            ++loads;
        }
    }
    ASSERT_GE(loads, 2);
    EXPECT_FALSE(
        sched::verifySchedule(ctx.loop, ctx.machine, ctx.graph, *result)
            .empty());
}

TEST(VerifierTest, DetectsBadAlternativeIndex)
{
    Context ctx("daxpy");
    sched::IterativeScheduler scheduler(ctx.loop, ctx.machine, ctx.graph,
                                        ctx.sccs);
    auto result = scheduler.trySchedule(ctx.mii.mii, 1000).schedule;
    ASSERT_TRUE(result.has_value());
    result->alternatives[0] = 99;
    EXPECT_FALSE(
        sched::verifySchedule(ctx.loop, ctx.machine, ctx.graph, *result)
            .empty());
}

TEST(ScheduleApiTest, BackendsDispatchThroughSchedule)
{
    // Both heuristic backends run under the one schedule() entry point
    // (the deprecated per-backend free functions are gone) and must tag
    // their outcomes with the backend that actually ran.
    Context ctx("daxpy");
    sched::ScheduleOptions options;
    options.search.budgetRatio = 6.0;
    const auto iter =
        sched::schedule(ctx.loop, ctx.machine, ctx.graph, ctx.sccs, options);
    options = sched::ScheduleOptions{}.withStrategy(
        sched::SchedulerStrategy::kSlack);
    const auto slack =
        sched::schedule(ctx.loop, ctx.machine, ctx.graph, ctx.sccs, options);
    EXPECT_EQ(iter.scheduler, "iterative");
    EXPECT_EQ(slack.scheduler, "slack");
    EXPECT_GE(iter.schedule.ii, iter.mii);
    EXPECT_GE(slack.schedule.ii, slack.mii);
    EXPECT_FALSE(iter.schedule.times.empty());
    EXPECT_FALSE(slack.schedule.times.empty());
}

TEST(ScheduleApiTest, StrategyNamesRoundTrip)
{
    for (const auto strategy : {sched::SchedulerStrategy::kIterative,
                                sched::SchedulerStrategy::kSlack,
                                sched::SchedulerStrategy::kExact}) {
        const auto name = sched::schedulerStrategyName(strategy);
        const auto parsed = sched::schedulerStrategyByName(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, strategy) << name;
    }
    EXPECT_FALSE(sched::schedulerStrategyByName("nonsense").has_value());
}

TEST(VerifierTest, DetectsBadIi)
{
    Context ctx("daxpy");
    sched::ScheduleResult bogus;
    bogus.ii = 0;
    EXPECT_FALSE(
        sched::verifySchedule(ctx.loop, ctx.machine, ctx.graph, bogus)
            .empty());
}

} // namespace
