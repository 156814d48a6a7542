/**
 * @file
 * Tests for the feedback-guided II search: walk mechanics with
 * synthetic attempts/probes, bit-identity of the winning schedule
 * against the linear search (kernel corpus + fuzz loops, iterative and
 * slack backends), the soundness property that every skipped candidate
 * II is confirmed infeasible by the exact full-loop backend,
 * AttemptFeedback population by the schedulers, accounting of skipped
 * candidates, and the options-codec normalization that lets feedback
 * requests share cache lines with linear ones.
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/pipeliner.hpp"
#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "ir/loop_builder.hpp"
#include "ir/printer.hpp"
#include "machine/cydra5.hpp"
#include "machine/machine_builder.hpp"
#include "machine/machines.hpp"
#include "sched/exact_scheduler.hpp"
#include "sched/feedback_probe.hpp"
#include "sched/ii_search.hpp"
#include "sched/schedule.hpp"
#include "service/options_codec.hpp"
#include "service/schedule_service.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace ims;
using ir::Opcode;

// ---------------------------------------------------------------------------
// The provable-gap workload ("gapster"): kMul's only reservation
// alternative uses the sparse resource at times 0 and C, so it
// modulo-self-collides — and the loop is provably infeasible — at every
// II dividing C. An m-operation kAdd recurrence with distance d pins the
// MII below those gaps, so the linear search must wade through candidate
// IIs the feedback probe can skip with a proof.

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

/** Index of the kMul (gap) operation in gapsterLoop. */
graph::VertexId
gapOpIndex(const ir::Loop& loop)
{
    for (int i = 0; i < loop.size(); ++i)
        if (loop.operation(i).opcode == Opcode::kMul)
            return i;
    ADD_FAILURE() << "gapster loop has no kMul";
    return -1;
}

TEST(FeedbackSearchTest, KindNameRoundTrips)
{
    EXPECT_EQ(sched::iiSearchKindName(sched::IiSearchKind::kFeedback),
              "feedback");
    EXPECT_EQ(sched::iiSearchKindByName("feedback"),
              sched::IiSearchKind::kFeedback);
}

// ---------------------------------------------------------------------------
// Walk mechanics with synthetic attempts and probes.

/** Fails below `first_feasible` with a conclusive feedback report. */
sched::IiAttemptOutcome
fakeAttempt(int ii, int first_feasible)
{
    sched::IiAttemptOutcome out; // status defaults to kBudgetExhausted
    out.counters.scheduleSteps = 10; // constant per-attempt delta
    out.feedback.ii = ii;
    out.feedback.status = out.status;
    out.feedback.displacements.push_back({0, 5});
    if (ii >= first_feasible) {
        sched::ScheduleResult result;
        result.ii = ii;
        result.stepsUsed = 7;
        out.schedule = result;
        out.status = sched::AttemptStatus::kScheduled;
    }
    return out;
}

const sched::IiSearchOptions kFeedbackSearch =
    sched::IiSearchOptions{}.withKind(sched::IiSearchKind::kFeedback);

std::string
noLuck()
{
    return "no luck";
}

TEST(FeedbackSearchTest, ProbeProvenCandidatesAreSkipped)
{
    // The probe sees (candidate II, latest *attempted* failure's report):
    // a skip must not advance the report the next probe call receives.
    std::vector<std::pair<int, int>> probed;
    const auto probe = [&](int ii, const sched::AttemptFeedback& feedback) {
        probed.emplace_back(ii, feedback.ii);
        return ii == 5 || ii == 7;
    };

    std::vector<int> attempted;
    support::Counters counters;
    const auto outcome = sched::runIiSearch(
        kFeedbackSearch, 3, 3, /*budget=*/10,
        [&](int ii) {
            attempted.push_back(ii);
            return fakeAttempt(ii, /*first_feasible=*/10);
        },
        probe, &counters, nullptr, noLuck);

    EXPECT_EQ(outcome.schedule.ii, 10);
    EXPECT_EQ(outcome.search.strategy, "feedback");
    // The walk visits the full linear range 3..10; 5 and 7 were skipped
    // inside it.
    EXPECT_EQ(outcome.attempts, 8);
    EXPECT_EQ(outcome.search.skippedIis, 2);
    EXPECT_EQ(attempted, (std::vector<int>{3, 4, 6, 8, 9, 10}));
    // Counters fold attempted candidates only; skips bill no budget.
    EXPECT_EQ(counters.scheduleSteps, 6u * 10u);
    EXPECT_EQ(outcome.totalSteps, 5 * 10 + 7);

    ASSERT_EQ(outcome.search.records.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        const auto& record = outcome.search.records[i];
        EXPECT_EQ(record.ii, 3 + i);
        EXPECT_EQ(record.skipped, record.ii == 5 || record.ii == 7);
        EXPECT_EQ(record.feasible, record.ii == 10);
        if (record.skipped) {
            EXPECT_EQ(record.status, sched::AttemptStatus::kInfeasible);
        }
    }

    // No probe before the first attempt (nothing to mine yet); after a
    // skip the previous attempted report is re-used (5 and 6 both see
    // the II-4 report, 7 and 8 both see the II-6 report).
    const std::vector<std::pair<int, int>> expected_probes = {
        {4, 3}, {5, 4}, {6, 4}, {7, 6}, {8, 6}, {9, 8}, {10, 9}};
    EXPECT_EQ(probed, expected_probes);
}

TEST(FeedbackSearchTest, InconclusiveFeedbackNeverConsultsTheProbe)
{
    int probes = 0;
    int attempts = 0;
    const auto outcome = sched::runIiSearch(
        kFeedbackSearch, 3, 3, 10,
        [&](int ii) {
            ++attempts;
            auto out = fakeAttempt(ii, /*first_feasible=*/6);
            out.feedback.clear(); // nothing usable to mine
            return out;
        },
        [&](int, const sched::AttemptFeedback&) {
            ++probes;
            return true;
        },
        nullptr, nullptr, noLuck);
    EXPECT_EQ(outcome.schedule.ii, 6);
    EXPECT_EQ(probes, 0);
    EXPECT_EQ(outcome.search.skippedIis, 0);
    EXPECT_EQ(attempts, 4);
}

// ---------------------------------------------------------------------------
// Bit-identity of the feedback search against linear on real problems.

/**
 * The feedback-search identity claim: the winner, the winning schedule
 * and the MII facts equal linear's exactly; the records cover the same
 * candidate range with the same per-II verdicts, except that feedback
 * may mark a *failed* candidate as skipped (proven infeasible without an
 * attempt). When nothing was skipped the outcomes — accounting
 * included — must be indistinguishable.
 */
void
expectFeedbackMatchesLinear(const sched::ModuloScheduleOutcome& linear,
                            const sched::ModuloScheduleOutcome& feedback,
                            const std::string& context)
{
    EXPECT_EQ(feedback.search.strategy, "feedback") << context;
    EXPECT_EQ(feedback.search.workers, 1) << context;

    EXPECT_EQ(feedback.schedule.ii, linear.schedule.ii) << context;
    EXPECT_EQ(feedback.schedule.times, linear.schedule.times) << context;
    EXPECT_EQ(feedback.schedule.alternatives, linear.schedule.alternatives)
        << context;
    EXPECT_EQ(feedback.schedule.scheduleLength,
              linear.schedule.scheduleLength)
        << context;
    EXPECT_EQ(feedback.schedule.stepsUsed, linear.schedule.stepsUsed)
        << context;
    EXPECT_EQ(feedback.schedule.unschedules, linear.schedule.unschedules)
        << context;
    EXPECT_EQ(feedback.resMii, linear.resMii) << context;
    EXPECT_EQ(feedback.mii, linear.mii) << context;
    EXPECT_EQ(feedback.attempts, linear.attempts) << context;
    EXPECT_EQ(feedback.budget, linear.budget) << context;

    ASSERT_EQ(feedback.search.records.size(), linear.search.records.size())
        << context;
    int skipped = 0;
    for (std::size_t i = 0; i < linear.search.records.size(); ++i) {
        const auto& l = linear.search.records[i];
        const auto& f = feedback.search.records[i];
        EXPECT_EQ(f.ii, l.ii) << context;
        EXPECT_FALSE(l.skipped) << context;
        if (f.skipped) {
            ++skipped;
            // A skip is only sound on a candidate linear also failed.
            EXPECT_FALSE(l.feasible) << context << " ii=" << f.ii;
            EXPECT_FALSE(f.feasible) << context << " ii=" << f.ii;
            EXPECT_EQ(f.status, sched::AttemptStatus::kInfeasible)
                << context << " ii=" << f.ii;
        } else {
            EXPECT_EQ(f.feasible, l.feasible) << context << " ii=" << f.ii;
            EXPECT_EQ(f.status, l.status) << context << " ii=" << f.ii;
        }
    }
    EXPECT_EQ(feedback.search.skippedIis, skipped) << context;
    EXPECT_EQ(linear.search.skippedIis, 0) << context;

    // §4.3 accounting: every attempted failure bills its full budget,
    // skipped candidates bill nothing.
    EXPECT_EQ(feedback.totalSteps,
              linear.totalSteps - skipped * linear.budget)
        << context;
    if (skipped == 0) {
        EXPECT_EQ(feedback.totalSteps, linear.totalSteps) << context;
        EXPECT_EQ(feedback.totalUnschedules, linear.totalUnschedules)
            << context;
    }
}

/**
 * The soundness property behind every skip: a candidate II the probe
 * skipped must be infeasible for the *full loop*, as decided by the
 * exact branch-and-bound backend with no budget pressure.
 */
void
expectSkipsProvenInfeasible(const ir::Loop& loop,
                            const machine::MachineModel& machine,
                            const sched::ModuloScheduleOutcome& outcome,
                            const std::string& context)
{
    const auto graph = graph::buildDepGraph(loop, machine);
    const auto sccs = graph::findSccs(graph);
    sched::ExactScheduler exact(loop, machine, graph, sccs);
    for (const auto& record : outcome.search.records) {
        if (!record.skipped)
            continue;
        sched::AttemptStatus status = sched::AttemptStatus::kScheduled;
        const auto schedule = exact.trySchedule(
            record.ii, sched::kDefaultExactNodeBudget, nullptr, &status);
        EXPECT_FALSE(schedule.has_value())
            << context << ": skipped II " << record.ii
            << " is actually feasible";
        EXPECT_EQ(status, sched::AttemptStatus::kInfeasible)
            << context << ": skipped II " << record.ii
            << " not proven infeasible by the exact backend";
    }
}

TEST(FeedbackSearchTest, MatchesLinearOnKernelCorpus)
{
    for (const auto& machine : {machine::cydra5(), machine::scalarToy()}) {
        for (const auto& w : workloads::kernelLibrary()) {
            sched::ScheduleOptions linear;
            const auto expected = sched::schedule(w.loop, machine, linear);

            sched::ScheduleOptions fb;
            fb.search.withKind(sched::IiSearchKind::kFeedback);
            const auto got = sched::schedule(w.loop, machine, fb);
            const std::string context = machine.name() + "/" + w.loop.name();
            expectFeedbackMatchesLinear(expected, got, context);
            if (got.search.skippedIis > 0)
                expectSkipsProvenInfeasible(w.loop, machine, got, context);
        }
    }
}

TEST(FeedbackSearchTest, MatchesLinearOnFuzzGeneratedLoops)
{
    const auto machine = machine::cydra5();
    support::Rng rng(20260808);
    const auto profile = workloads::fuzzProfile();
    int hard = 0; // loops whose winning II exceeded the MII
    for (int i = 0; i < 200; ++i) {
        const auto loop = workloads::generateLoop(
            rng, "fb_fuzz_" + std::to_string(i), profile);

        sched::ScheduleOptions linear;
        const auto expected = sched::schedule(loop, machine, linear);
        hard += expected.attempts > 1;

        sched::ScheduleOptions fb;
        fb.search.withKind(sched::IiSearchKind::kFeedback);
        const auto got = sched::schedule(loop, machine, fb);
        expectFeedbackMatchesLinear(expected, got, loop.name());
        if (got.search.skippedIis > 0)
            expectSkipsProvenInfeasible(loop, machine, got, loop.name());
    }
    // The corpus must exercise multi-attempt searches, or the identity
    // above never reaches the probe-consulting path.
    EXPECT_GT(hard, 0);
}

TEST(FeedbackSearchTest, SkipsFireOnProvableGapsAndSaveBudget)
{
    // C=1980 = 2^2*3^2*5*11 puts divisor gaps at 9, 10, 11 and 12 —
    // inside the candidate range [MII=8, winner=13] — so the probe has
    // real skips to prove for both heuristic backends.
    for (const int c : {90, 1980}) {
        const auto machine = gapsterMachine(c);
        const auto loop = gapsterLoop(/*m=*/4, /*d=*/2);
        for (const auto strategy : {sched::SchedulerStrategy::kIterative,
                                    sched::SchedulerStrategy::kSlack}) {
            sched::ScheduleOptions linear;
            linear.strategy = strategy;
            const auto expected = sched::schedule(loop, machine, linear);

            sched::ScheduleOptions fb = linear;
            fb.search.withKind(sched::IiSearchKind::kFeedback);
            const auto got = sched::schedule(loop, machine, fb);

            const std::string context = "gapster C=" + std::to_string(c) +
                                        " " + expected.scheduler;
            expectFeedbackMatchesLinear(expected, got, context);
            EXPECT_GT(got.search.skippedIis, 0) << context;
            EXPECT_LT(got.totalSteps, expected.totalSteps) << context;
            // Every skipped candidate divides C (the construction's gaps).
            for (const auto& record : got.search.records) {
                if (record.skipped) {
                    EXPECT_EQ(c % record.ii, 0)
                        << context << " ii=" << record.ii;
                }
            }
            expectSkipsProvenInfeasible(loop, machine, got, context);
        }
    }
}

TEST(FeedbackSearchTest, ExactBackendConsumesFeedbackToo)
{
    // The exact backend reports unplaceable operations through the same
    // feedback channel; on the gapster the probe can then skip divisor
    // gaps the exact search would otherwise prove one by one.
    const auto machine = gapsterMachine(90);
    const auto loop = gapsterLoop(4, 2);

    sched::ScheduleOptions linear;
    linear.strategy = sched::SchedulerStrategy::kExact;
    const auto expected = sched::schedule(loop, machine, linear);

    sched::ScheduleOptions fb = linear;
    fb.search.withKind(sched::IiSearchKind::kFeedback);
    const auto got = sched::schedule(loop, machine, fb);

    expectFeedbackMatchesLinear(expected, got, "gapster exact");
    EXPECT_GT(got.search.skippedIis, 0);
    expectSkipsProvenInfeasible(loop, machine, got, "gapster exact");
}

// ---------------------------------------------------------------------------
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
        for (const auto kind :
             {sched::IiSearchKind::kLinear, sched::IiSearchKind::kFeedback}) {
            const core::SoftwarePipeliner pipeliner(
                machine, core::PipelinerOptions{}
                             .withScheduler(c.strategy)
                             .withIiSearch(kind)
                             .withMaxIiIncrease(0)
                             .withExactNodeBudget(c.exactNodeBudget));
            const auto result =
                pipeliner.pipeline(core::PipelineRequest(loop));
            const std::string context =
                sched::schedulerStrategyName(c.strategy) + "/" +
                sched::iiSearchKindName(kind);
            ASSERT_FALSE(result.ok()) << context;
            ASSERT_EQ(result.diagnostics.size(), 1u) << context;
            EXPECT_EQ(result.diagnostics[0].code, c.code) << context;
            EXPECT_EQ(result.diagnostics[0].message, c.message) << context;
        }
    }
}

// ---------------------------------------------------------------------------
// AttemptFeedback population by the schedulers.

TEST(AttemptFeedbackTest, UnplaceableOpsAtDivisorIis)
{
    const auto machine = gapsterMachine(90);
    const auto loop = gapsterLoop(4, 2);
    const auto gap_op = gapOpIndex(loop);

    // kMul's table uses `sparse` at times 0 and 90: unplaceable exactly
    // at IIs dividing 90.
    EXPECT_EQ(sched::collectUnplaceableOps(loop, machine, 9),
              std::vector<graph::VertexId>{gap_op});
    EXPECT_EQ(sched::collectUnplaceableOps(loop, machine, 10),
              std::vector<graph::VertexId>{gap_op});
    EXPECT_TRUE(sched::collectUnplaceableOps(loop, machine, 7).empty());
    EXPECT_TRUE(sched::collectUnplaceableOps(loop, machine, 11).empty());
}

TEST(AttemptFeedbackTest, IterativeSchedulerPopulatesTheSink)
{
    const auto machine = gapsterMachine(90);
    const auto loop = gapsterLoop(4, 2);
    const auto gap_op = gapOpIndex(loop);
    const auto graph = graph::buildDepGraph(loop, machine);
    const auto sccs = graph::findSccs(graph);

    sched::AttemptFeedback sink;
    sched::IterativeScheduleOptions options;
    options.feedback = &sink;
    sched::IterativeScheduler scheduler(loop, machine, graph, sccs,
                                        options);
    const std::int64_t budget = 2 * loop.size();

    // II 9 divides 90: infeasible, and the report names the culprit.
    sched::AttemptStatus status = sched::AttemptStatus::kScheduled;
    EXPECT_FALSE(scheduler.trySchedule(9, budget, nullptr, &status)
                     .has_value());
    EXPECT_EQ(status, sched::AttemptStatus::kInfeasible);
    EXPECT_EQ(sink.ii, 9);
    EXPECT_EQ(sink.status, sched::AttemptStatus::kInfeasible);
    EXPECT_EQ(sink.unplaceable, std::vector<graph::VertexId>{gap_op});
    EXPECT_TRUE(sink.conclusive());
    // Unplaceable operations lead the bottleneck regardless of cap.
    const auto bottleneck = sink.bottleneck(4);
    ASSERT_FALSE(bottleneck.empty());
    EXPECT_EQ(bottleneck.front(), gap_op);
    EXPECT_LE(bottleneck.size(), 4u);

    // II 8 (below the recurrence bound of the 4-add cycle) exhausts the
    // budget: the report carries the displacement storm instead, sorted
    // by count descending then id ascending, plus the resource classes
    // that forced the evictions.
    status = sched::AttemptStatus::kScheduled;
    EXPECT_FALSE(scheduler.trySchedule(8, budget, nullptr, &status)
                     .has_value());
    EXPECT_EQ(status, sched::AttemptStatus::kBudgetExhausted);
    EXPECT_EQ(sink.ii, 8);
    EXPECT_TRUE(sink.unplaceable.empty());
    ASSERT_FALSE(sink.displacements.empty());
    EXPECT_TRUE(sink.conclusive());
    for (std::size_t i = 1; i < sink.displacements.size(); ++i) {
        const auto& prev = sink.displacements[i - 1];
        const auto& cur = sink.displacements[i];
        EXPECT_TRUE(prev.count > cur.count ||
                    (prev.count == cur.count && prev.op < cur.op))
            << "displacements not in deterministic storm order at " << i;
    }
    for (std::size_t i = 1; i < sink.contendedResources.size(); ++i) {
        const auto& prev = sink.contendedResources[i - 1];
        const auto& cur = sink.contendedResources[i];
        EXPECT_TRUE(prev.evictions > cur.evictions ||
                    (prev.evictions == cur.evictions &&
                     prev.resource < cur.resource))
            << "contended resources not in deterministic order at " << i;
    }

    // A successful attempt clears the sink back to inconclusive.
    status = sched::AttemptStatus::kBudgetExhausted;
    EXPECT_TRUE(scheduler.trySchedule(11, 1 << 20, nullptr, &status)
                    .has_value());
    EXPECT_EQ(status, sched::AttemptStatus::kScheduled);
    EXPECT_FALSE(sink.conclusive());
    EXPECT_TRUE(sink.unplaceable.empty());
    EXPECT_TRUE(sink.displacements.empty());
}

TEST(AttemptFeedbackTest, FeedbackProbeAccumulatesAndProves)
{
    const auto machine = gapsterMachine(90);
    const auto loop = gapsterLoop(4, 2);
    const auto gap_op = gapOpIndex(loop);
    const auto graph = graph::buildDepGraph(loop, machine);
    const auto sccs = graph::findSccs(graph);

    sched::FeedbackProbe probe(loop, machine, graph, sccs);

    sched::AttemptFeedback report;
    report.ii = 8;
    report.status = sched::AttemptStatus::kInfeasible;
    report.unplaceable = {gap_op};

    // The gap op alone is the whole bottleneck: II 9 and 10 divide 90
    // (proven infeasible), 11 does not (no proof, no skip).
    EXPECT_TRUE(probe(9, report));
    EXPECT_TRUE(probe(10, report));
    EXPECT_FALSE(probe(11, report));
    EXPECT_EQ(probe.probesRun(), 3);
    EXPECT_EQ(probe.probesProven(), 2);
    ASSERT_FALSE(probe.members().empty());
    EXPECT_EQ(probe.members().front(), gap_op);

    // Folding a displacement-storm report grows the member set with the
    // storm vertices closed under their SCCs, capped and sorted.
    sched::AttemptFeedback storm;
    storm.ii = 8;
    storm.status = sched::AttemptStatus::kBudgetExhausted;
    storm.displacements.push_back({0, 7});
    EXPECT_FALSE(probe(13, storm)); // 13 is the real winner: no proof
    const auto& members = probe.members();
    EXPECT_LE(members.size(),
              static_cast<std::size_t>(sched::kFeedbackSubgraphCap));
    for (std::size_t i = 1; i < members.size(); ++i)
        EXPECT_LT(members[i - 1], members[i]);

    // A smaller cap bounds the member set: op 0's four-add recurrence
    // does not fit under a cap of 1, so only the storm vertex joins.
    sched::FeedbackProbe capped(loop, machine, graph, sccs,
                                /*subgraph_cap=*/1);
    EXPECT_FALSE(capped(13, storm));
    EXPECT_EQ(capped.members(), std::vector<graph::VertexId>{0});
}

// ---------------------------------------------------------------------------
// End-to-end wiring: pipeliner options, telemetry, options codec, cache.

TEST(FeedbackSearchTest, PipelineReportsSkippedIisInTelemetry)
{
    const auto machine = gapsterMachine(1980);
    const auto loop = gapsterLoop(4, 2);

    const core::SoftwarePipeliner linear(machine);
    const auto base = linear.pipeline(core::PipelineRequest(loop));
    ASSERT_TRUE(base.artifacts.has_value()) << base.firstError();

    const core::SoftwarePipeliner pipeliner(
        machine, core::PipelinerOptions{}.withIiSearch(
                     sched::IiSearchKind::kFeedback));
    const auto result = pipeliner.pipeline(core::PipelineRequest(loop));
    ASSERT_TRUE(result.artifacts.has_value()) << result.firstError();

    EXPECT_EQ(result.telemetry.iiStrategy, "feedback");
    EXPECT_GT(result.telemetry.iiSkipped, 0);
    EXPECT_EQ(result.telemetry.ii, base.telemetry.ii);
    EXPECT_EQ(result.telemetry.attempts, base.telemetry.attempts);
    EXPECT_LT(result.telemetry.stepsTotal, base.telemetry.stepsTotal);

    // The skip count survives the telemetry JSON round trip.
    const auto parsed =
        support::parseTelemetryJson(result.telemetry.toJson());
    EXPECT_EQ(parsed.iiSkipped, result.telemetry.iiSkipped);
}

TEST(FeedbackSearchTest, OptionsCodecNormalizesSearchKindAway)
{
    // Skips are sound proofs, so feedback results equal linear's: the
    // canonical options text — and hence the service cache key — must
    // not depend on the search kind.
    const std::string canonical =
        service::canonicalOptionsText(core::PipelinerOptions{});
    EXPECT_EQ(service::canonicalOptionsText(
                  core::PipelinerOptions{}.withIiSearch(
                      sched::IiSearchKind::kFeedback)),
              canonical);
    // Round trip through the parser stays canonical.
    EXPECT_EQ(service::canonicalOptionsText(
                  service::parseOptionsText(canonical)),
              canonical);
}

TEST(FeedbackSearchTest, ServiceCacheHitsAcrossSearchStrategies)
{
    // A feedback request must land on the cache line a linear request
    // warmed (and vice versa): same loop, same semantic options, only
    // the search strategy differs.
    service::ScheduleService server(
        service::ServiceOptions{}.withThreads(1));

    service::ServiceRequest cold_request;
    cold_request.loopText =
        ir::printLoop(workloads::kernelByName("tridiag").loop);
    const auto cold = server.scheduleNow(cold_request);
    ASSERT_TRUE(cold.ok()) << cold.errorMessage;
    EXPECT_FALSE(cold.cacheHit);

    service::ServiceRequest feedback_request = cold_request;
    feedback_request.options = core::PipelinerOptions{}.withIiSearch(
        sched::IiSearchKind::kFeedback);
    const auto hit = server.scheduleNow(feedback_request);
    ASSERT_TRUE(hit.ok()) << hit.errorMessage;
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(hit.result.get(), cold.result.get());
}

} // namespace
