#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/cydra5.hpp"
#include "sched/attempt_feedback.hpp"
#include "sched/ii_search.hpp"
#include "sched/iterative_scheduler.hpp"
#include "sched/schedule.hpp"
#include "support/cancellation.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;

TEST(IiSearchTest, KindNamesRoundTrip)
{
    EXPECT_EQ(sched::iiSearchKindName(sched::IiSearchKind::kLinear),
              "linear");
    EXPECT_EQ(sched::iiSearchKindByName("linear"),
              sched::IiSearchKind::kLinear);
    EXPECT_FALSE(sched::iiSearchKindByName("racing").has_value());
    EXPECT_FALSE(sched::iiSearchKindByName("bogus").has_value());
}

TEST(IiSearchTest, ScheduleRejectsBadOptionsBeforeAnyBackendWork)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("daxpy");
    const auto bad = {
        sched::ScheduleOptions{}.withSearch(
            sched::IiSearchOptions{}.withBudgetRatio(0.0)),
        sched::ScheduleOptions{}.withSearch(
            sched::IiSearchOptions{}.withMaxIiIncrease(-1)),
        sched::ScheduleOptions{}
            .withStrategy(sched::SchedulerStrategy::kExact)
            .withExactNodeBudget(0),
    };
    for (auto options : bad) {
        support::TelemetryRecorder recorder;
        options.withTelemetry(&recorder);
        support::Counters counters;
        EXPECT_THROW(sched::schedule(w.loop, machine, options, &counters),
                     support::Error);
        // The check precedes the MII computation: no phase ran.
        EXPECT_TRUE(recorder.record().phases.empty());
        EXPECT_EQ(counters.minDistInvocations, 0u);
    }
}

// ---------------------------------------------------------------------------
// The walk with synthetic attempt callbacks.

sched::IiAttemptOutcome
fakeAttempt(int ii, int first_feasible)
{
    sched::IiAttemptOutcome out; // status defaults to kBudgetExhausted
    out.counters.scheduleSteps = 10; // constant per-attempt delta
    if (ii >= first_feasible) {
        sched::ScheduleResult result;
        result.ii = ii;
        result.stepsUsed = 7;
        out.schedule = result;
        out.status = sched::AttemptStatus::kScheduled;
    }
    return out;
}

std::string
noLuck()
{
    return "no luck";
}

TEST(IiSearchTest, LinearWalkStopsAtTheWinner)
{
    std::vector<int> visited;
    support::Counters counters;
    support::TelemetryRecorder recorder;
    const auto outcome = sched::runIiSearch(
        sched::IiSearchOptions{}, 1, 2, /*budget=*/10,
        [&](int ii) {
            visited.push_back(ii);
            return fakeAttempt(ii, /*first_feasible=*/5);
        },
        {}, &counters, &recorder, noLuck);

    EXPECT_EQ(visited, (std::vector<int>{2, 3, 4, 5}));
    EXPECT_EQ(outcome.schedule.ii, 5);
    EXPECT_EQ(outcome.attempts, 4);
    EXPECT_EQ(outcome.search.strategy, "linear");
    EXPECT_EQ(outcome.search.workers, 1);
    // §4.3 billing: three failures at the full budget, then the winner.
    EXPECT_EQ(outcome.totalSteps, 3 * 10 + 7);
    EXPECT_EQ(counters.scheduleSteps, 4u * 10u);
    ASSERT_EQ(outcome.search.records.size(), 4u);
    ASSERT_EQ(recorder.record().phases.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(outcome.search.records[i].ii, 2 + i);
        EXPECT_EQ(outcome.search.records[i].feasible, i == 3);
        EXPECT_EQ(recorder.record().phases[i].phase,
                  support::Phase::kIiAttempt);
        EXPECT_EQ(recorder.record().phases[i].detail, 2 + i);
        EXPECT_EQ(recorder.record().phases[i].succeeded, i == 3);
    }
}

TEST(IiSearchTest, ExhaustedSearchThrowsCodedError)
{
    support::Counters counters;
    try {
        sched::runIiSearch(
            sched::IiSearchOptions{}.withMaxIiIncrease(3), 2, 2, 10,
            [&](int ii) { return fakeAttempt(ii, /*first_feasible=*/1000); },
            {}, &counters, nullptr, noLuck);
        FAIL() << "runIiSearch must throw on exhaustion";
    } catch (const support::CodedError& error) {
        EXPECT_EQ(error.code(), "sched.ii_exhausted");
        EXPECT_NE(std::string(error.what()).find("no luck"),
                  std::string::npos);
    }
    // Exhaustion still publishes the whole walk before throwing.
    EXPECT_EQ(counters.scheduleSteps, 4u * 10u);
}

TEST(IiSearchTest, ThrowingAttemptLeavesCountersAndSinkUntouched)
{
    // The walk publishes counters and ii_attempt samples only once it
    // ends: an attempt that throws after an earlier failure (with a
    // nonzero counter delta) must leave the caller's accounting exactly
    // as it was.
    support::Counters counters;
    counters.scheduleSteps = 3;
    support::TelemetryRecorder recorder;
    int calls = 0;
    EXPECT_THROW(sched::runIiSearch(
                     sched::IiSearchOptions{}, 4, 4, 10,
                     [&](int ii) {
                         if (++calls == 2)
                             throw std::runtime_error("attempt failed");
                         return fakeAttempt(ii, /*first_feasible=*/100);
                     },
                     {}, &counters, &recorder, noLuck),
                 std::runtime_error);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(counters.scheduleSteps, 3u);
    EXPECT_TRUE(recorder.record().phases.empty());
}

// ---------------------------------------------------------------------------
// Scheduler-level cancellation.

TEST(IiSearchTest, CancelledAttemptStopsBeforeSpendingBudget)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("tridiag");
    const auto graph = graph::buildDepGraph(w.loop, machine);
    const auto sccs = graph::findSccs(graph);

    support::CancellationToken token;
    token.lowerCeiling(5); // cancels every attempt above II 5

    support::Counters counters;
    sched::IterativeScheduler scheduler(w.loop, machine, graph, sccs, {},
                                        &counters);
    sched::AttemptStatus status = sched::AttemptStatus::kScheduled;
    const auto result =
        scheduler.trySchedule(9, /*budget=*/1 << 20, &token, &status);

    // The token is polled at the top of every budget-loop iteration, so a
    // pre-cancelled attempt must give up within one scheduling step —
    // without touching the (huge) budget.
    EXPECT_FALSE(result.has_value());
    EXPECT_EQ(status, sched::AttemptStatus::kCancelled);
    EXPECT_LE(counters.scheduleSteps, 1u);

    // Without the token the same scheduler still succeeds.
    status = sched::AttemptStatus::kCancelled;
    const auto fine = scheduler.trySchedule(9, 1 << 20, nullptr, &status);
    EXPECT_TRUE(fine.has_value());
    EXPECT_EQ(status, sched::AttemptStatus::kScheduled);
}

TEST(IiSearchTest, CancellationTokenCeilingIsMonotonic)
{
    support::CancellationToken token;
    EXPECT_FALSE(token.cancelled(1000));
    token.lowerCeiling(10);
    token.lowerCeiling(20); // higher key must not raise the ceiling back
    EXPECT_EQ(token.ceiling(), 10);
    EXPECT_TRUE(token.cancelled(11));
    EXPECT_FALSE(token.cancelled(10));
    token.cancelAll();
    EXPECT_TRUE(token.cancelled(0));
}

} // namespace
