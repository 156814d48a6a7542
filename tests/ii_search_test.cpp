/**
 * @file
 * Tests for the Figure-2 II walk: its mechanics with synthetic attempts,
 * option validation, and — on the gapster, a loop with provably
 * infeasible candidate IIs — each backend's per-candidate verdicts,
 * infeasibility proofs, §4.3 step billing and exhaustion diagnostics.
 */
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pipeliner.hpp"
#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "ir/loop_builder.hpp"
#include "machine/cydra5.hpp"
#include "machine/machine_builder.hpp"
#include "sched/attempt.hpp"
#include "sched/ii_search.hpp"
#include "sched/schedule.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;
using ir::Opcode;

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
        &counters, &recorder, noLuck);

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

TEST(IiSearchTest, LargestIncreaseWalksWithoutOverflow)
{
    // mii + maxIiIncrease does not fit int: the walk computes its last
    // candidate in 64 bits, so it still visits MII, MII+1, MII+2...
    constexpr int kMax = std::numeric_limits<int>::max();
    const auto options = sched::IiSearchOptions{}.withMaxIiIncrease(kMax);
    std::vector<int> visited;
    const auto outcome = sched::runIiSearch(
        options, 2, 2, 10,
        [&](int ii) {
            visited.push_back(ii);
            return fakeAttempt(ii, /*first_feasible=*/4);
        },
        nullptr, nullptr, noLuck);
    EXPECT_EQ(visited, (std::vector<int>{2, 3, 4}));
    EXPECT_EQ(outcome.schedule.ii, 4);

    // ...and stops after INT_MAX instead of wrapping around.
    visited.clear();
    EXPECT_THROW(sched::runIiSearch(
                     options, kMax - 1, kMax - 1, 10,
                     [&](int ii) {
                         visited.push_back(ii);
                         return sched::IiAttemptOutcome{};
                     },
                     nullptr, nullptr, noLuck),
                 support::CodedError);
    EXPECT_EQ(visited, (std::vector<int>{kMax - 1, kMax}));
}

TEST(IiSearchTest, ExhaustedSearchThrowsCodedError)
{
    support::Counters counters;
    try {
        sched::runIiSearch(
            sched::IiSearchOptions{}.withMaxIiIncrease(3), 2, 2, 10,
            [&](int ii) { return fakeAttempt(ii, /*first_feasible=*/1000); },
            &counters, nullptr, noLuck);
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
                     &counters, &recorder, noLuck),
                 std::runtime_error);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(counters.scheduleSteps, 3u);
    EXPECT_TRUE(recorder.record().phases.empty());
}

// ---------------------------------------------------------------------------
// The gapster: kMul's only reservation alternative uses the sparse
// resource at times 0 and C, so it modulo-self-collides — and the loop is
// provably infeasible — at every II dividing C. An m-operation kAdd
// recurrence with distance d pins the MII below those gaps, so the walk
// must attempt candidate IIs that a backend can prove impossible.

machine::MachineModel
gapsterMachine(int c)
{
    machine::MachineBuilder b("gapster");
    b.addResource("src_bus");
    b.addResource("alu0");
    b.addResource("alu1");
    b.addResource("sparse");
    b.addResource("mem");
    {
        machine::ReservationTable t0, t1;
        t0.addUse(0, 0);
        t0.addUse(1, 1);
        t1.addUse(0, 0);
        t1.addUse(1, 2);
        auto cfg = b.opcode(Opcode::kAdd, 4);
        cfg.alternative("a0", t0);
        cfg.alternative("a1", t1);
    }
    {
        machine::ReservationTable t;
        t.addUse(0, 3);
        t.addUse(c, 3);
        auto cfg = b.opcode(Opcode::kMul, 3);
        cfg.alternative("m", t);
    }
    for (int i = 0; i < ir::kNumRealOpcodes; ++i) {
        const auto op = static_cast<Opcode>(i);
        if (op == Opcode::kAdd || op == Opcode::kMul)
            continue;
        machine::ReservationTable t;
        t.addUse(0, 4);
        auto cfg = b.opcode(op, op == Opcode::kLoad ? 2 : 1);
        cfg.alternative("s", t);
    }
    return b.build();
}

/** m-add recurrence of distance d, one kMul (the gap op), two loads. */
ir::Loop
gapsterLoop(int m, int d)
{
    ir::LoopBuilder b("gap");
    b.recurrence("c");
    b.op(Opcode::kAdd, "t0", {b.reg("c", d), b.imm(1)});
    for (int i = 1; i < m - 1; ++i) {
        const std::string dest = "t" + std::to_string(i);
        const std::string src = "t" + std::to_string(i - 1);
        b.op(Opcode::kAdd, dest, {b.reg(src), b.imm(1)});
    }
    const std::string last = "t" + std::to_string(m - 2);
    b.op(Opcode::kAdd, "c", {b.reg(last), b.imm(1)});
    b.liveIn("x");
    b.op(Opcode::kMul, "p", {b.reg("x"), b.imm(3)});
    b.load("f0", "A", 0, b.reg("x"));
    b.load("f1", "A", 1, b.reg("x"));
    b.closeLoop();
    return b.build();
}

TEST(IiSearchTest, GapsterVerdictsProofsAndStepsArePinned)
{
    // Each record reads "ii:status". A heuristic backend proves exactly
    // the divisor IIs infeasible (kMul has no usable alternative there);
    // at II 8 it only runs out of budget, where the exact backend proves
    // infeasibility too. Failed attempts bill the full budget (§4.3).
    using sched::SchedulerStrategy;
    struct Case
    {
        int c;
        SchedulerStrategy strategy;
        std::string records;
        int proofs;
        std::int64_t totalSteps;
    };
    const std::string c90 = "9:infeasible 10:infeasible 11:scheduled";
    const std::string c1980 = "9:infeasible 10:infeasible 11:infeasible "
                              "12:infeasible 13:scheduled";
    const Case cases[] = {
        {90, SchedulerStrategy::kIterative, "8:budget_exhausted " + c90, 2,
         77},
        {90, SchedulerStrategy::kSlack, "8:budget_exhausted " + c90, 2, 75},
        {90, SchedulerStrategy::kExact, "8:infeasible " + c90, 3,
         3 * sched::kDefaultExactNodeBudget + 45},
        {1980, SchedulerStrategy::kIterative, "8:budget_exhausted " + c1980,
         4, 121},
        {1980, SchedulerStrategy::kSlack, "8:budget_exhausted " + c1980, 4,
         119},
    };
    const auto loop = gapsterLoop(/*m=*/4, /*d=*/2);
    for (const Case& c : cases) {
        const auto outcome = sched::schedule(
            loop, gapsterMachine(c.c),
            sched::ScheduleOptions{}.withStrategy(c.strategy));
        std::string records;
        for (const auto& record : outcome.search.records) {
            if (!records.empty())
                records += ' ';
            records += std::to_string(record.ii) + ":" +
                       sched::attemptStatusName(record.status);
        }
        const std::string context = "C=" + std::to_string(c.c) + " " +
                                    sched::schedulerStrategyName(c.strategy);
        EXPECT_EQ(outcome.mii, 8) << context;
        EXPECT_EQ(records, c.records) << context;
        EXPECT_EQ(outcome.search.attemptsProvenInfeasible, c.proofs)
            << context;
        EXPECT_EQ(outcome.totalSteps, c.totalSteps) << context;
    }
}

// Exhaustion diagnostics. The service fingerprint digests diagnostic
// messages, so each backend's wording is pinned here word for word.
TEST(ExhaustionDiagnosticsTest, MessagesArePinnedPerBackend)
{
    // The gapster's MII is 8 and no backend schedules it there; one
    // exact search node is not enough to decide II 8.
    const auto machine = gapsterMachine(90);
    const auto loop = gapsterLoop(4, 2);
    struct Case
    {
        sched::SchedulerStrategy strategy;
        std::int64_t exactNodeBudget;
        std::string code;
        std::string message;
    };
    const Case cases[] = {
        {sched::SchedulerStrategy::kIterative, sched::kDefaultExactNodeBudget,
         "sched.ii_exhausted",
         "no modulo schedule found for loop 'gap' within 0 IIs above the "
         "MII"},
        {sched::SchedulerStrategy::kSlack, sched::kDefaultExactNodeBudget,
         "sched.ii_exhausted",
         "slack scheduler found no schedule for 'gap' within 0 IIs above "
         "the MII"},
        {sched::SchedulerStrategy::kExact, sched::kDefaultExactNodeBudget,
         "sched.ii_exhausted",
         "exact scheduler proved no schedule exists for loop 'gap' within "
         "0 IIs above the MII"},
        {sched::SchedulerStrategy::kExact, 1, "exact.budget_exhausted",
         "exact scheduler exhausted its node budget (1) at II 8 for loop "
         "'gap' — optimality cannot be proven; raise exactNodeBudget or "
         "use the iterative backend"},
    };
    for (const Case& c : cases) {
        const core::SoftwarePipeliner pipeliner(
            machine, core::PipelinerOptions{}
                         .withScheduler(c.strategy)
                         .withMaxIiIncrease(0)
                         .withExactNodeBudget(c.exactNodeBudget));
        const auto result = pipeliner.pipeline(core::PipelineRequest(loop));
        const std::string context =
            sched::schedulerStrategyName(c.strategy);
        ASSERT_FALSE(result.ok()) << context;
        ASSERT_EQ(result.diagnostics.size(), 1u) << context;
        EXPECT_EQ(result.diagnostics[0].code, c.code) << context;
        EXPECT_EQ(result.diagnostics[0].message, c.message) << context;
    }
}

} // namespace
