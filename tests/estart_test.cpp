/**
 * @file
 * Bit-identity tests for the incremental Estart tracker.
 *
 * The EstartTracker (sched/attempt_state.hpp) replaces the per-step
 * in-edge rescan of Figure 5(b) with cached values updated by delta on
 * place/displace. Its correctness claim is exact equality, so the tests
 * replay recorded scheduling traces against a from-scratch oracle that
 * rescans every in-edge at every step: any divergence between the cached
 * value and the rescan is a bug, not a quality difference.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/cydra5.hpp"
#include "sched/attempt.hpp"
#include "sched/iterative_scheduler.hpp"
#include "sched/schedule.hpp"
#include "support/counters.hpp"
#include "support/rng.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace ims;

/**
 * From-scratch Estart oracle: mirrors the partial schedule by applying
 * each trace event, and answers Estart queries by rescanning every
 * in-edge against the currently scheduled predecessors — the exact
 * computation the incremental tracker's cache must reproduce.
 */
class ReplayOracle
{
  public:
    ReplayOracle(const graph::DepGraph& graph, int ii)
        : graph_(graph),
          ii_(ii),
          time_(graph.numVertices(), 0),
          scheduled_(graph.numVertices(), 0)
    {
        // The scheduler places START at time 0 before the first traced
        // step.
        scheduled_[graph.start()] = 1;
        time_[graph.start()] = 0;
    }

    /** Figure 5(b) over the mirrored schedule. */
    int
    estart(graph::VertexId op) const
    {
        std::int64_t estart = 0;
        for (const graph::Dep& dep : graph_.inDeps(op)) {
            if (dep.other == op || !scheduled_[dep.other])
                continue;
            const std::int64_t bound =
                time_[dep.other] + dep.delay -
                static_cast<std::int64_t>(ii_) * dep.distance;
            estart = std::max(estart, bound);
        }
        return static_cast<int>(estart);
    }

    /** Apply one step: the displacements and the placement itself. */
    void
    apply(const sched::TraceEvent& event)
    {
        for (graph::VertexId victim : event.displaced)
            scheduled_[victim] = 0;
        scheduled_[event.op] = 1;
        time_[event.op] = event.slot;
    }

  private:
    const graph::DepGraph& graph_;
    int ii_;
    std::vector<int> time_;
    std::vector<std::uint8_t> scheduled_;
};

/** Replays `trace` and fails the test on the first Estart divergence. */
void
expectTraceMatchesOracle(const graph::DepGraph& graph, int ii,
                         const std::vector<sched::TraceEvent>& trace,
                         const std::string& context)
{
    ReplayOracle oracle(graph, ii);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto& event = trace[i];
        ASSERT_EQ(event.estart, oracle.estart(event.op))
            << context << " step " << i << " op " << event.op;
        oracle.apply(event);
    }
}

/**
 * Schedule with the default options to learn the winning II and budget,
 * then rerun that single attempt with tracing and replay it against the
 * oracle. Accumulates the displacement count (for the storm test) into
 * `displacements` when non-null. (ASSERTs force a void return type.)
 */
void
checkKernelAgainstOracle(const ir::Loop& loop,
                         const machine::MachineModel& machine,
                         support::Counters& counters,
                         std::int64_t* displacements = nullptr)
{
    const auto graph = graph::buildDepGraph(loop, machine);
    const auto sccs = graph::findSccs(graph);
    const auto outcome = sched::schedule(loop, machine, graph, sccs);

    std::vector<sched::TraceEvent> trace;
    sched::IterativeScheduleOptions options;
    options.trace = &trace;
    sched::IterativeScheduler scheduler(loop, machine, graph, sccs, options);
    const auto attempt =
        scheduler.trySchedule(outcome.schedule.ii, outcome.budget);
    counters += attempt.counters;
    const auto& result = attempt.schedule;

    ASSERT_TRUE(result.has_value()) << loop.name();
    EXPECT_EQ(result->times, outcome.schedule.times) << loop.name();
    EXPECT_EQ(result->alternatives, outcome.schedule.alternatives)
        << loop.name();
    expectTraceMatchesOracle(graph, outcome.schedule.ii, trace,
                             loop.name());

    // Displacement storms live at the tight IIs the search rejected: rerun
    // the first candidate too when the winner sits above the MII.
    std::int64_t storm = result->unschedules;
    if (outcome.schedule.ii > outcome.mii) {
        std::vector<sched::TraceEvent> tight_trace;
        sched::IterativeScheduleOptions tight_options;
        tight_options.trace = &tight_trace;
        sched::IterativeScheduler tight(loop, machine, graph, sccs,
                                        tight_options);
        const auto failed = tight.trySchedule(outcome.mii, outcome.budget);
        counters += failed.counters;
        EXPECT_FALSE(failed.schedule.has_value()) << loop.name();
        expectTraceMatchesOracle(graph, outcome.mii, tight_trace,
                                 loop.name() + " @mii");
        for (const auto& event : tight_trace)
            storm += static_cast<std::int64_t>(event.displaced.size());
    }
    if (displacements != nullptr)
        *displacements += storm;
}

TEST(EstartTest, TraceReplayMatchesFromScratchOracleOnKernelCorpus)
{
    const auto machine = machine::cydra5();
    support::Counters counters;
    for (const auto& w : workloads::kernelLibrary())
        checkKernelAgainstOracle(w.loop, machine, counters);
    // The tracker must actually serve queries from the cache; an
    // implementation that marks everything dirty every step would pass
    // the equality check while recomputing from scratch throughout.
    EXPECT_GT(counters.estartIncrementalHits, 0u);
    EXPECT_GT(counters.estartPredecessorVisits, 0u);
}

TEST(EstartTest, DisplacementStormKeepsCacheAndOracleInAgreement)
{
    // Regression for the tracker's downgrade path: a displacement can
    // *lower* a successor's Estart, which a monotone max-relax cache
    // cannot express — onRemove must dirty the successors so the next
    // query recomputes. Loops whose winning II exceeds the MII produce
    // exactly these storms at the rejected tight IIs (which
    // checkKernelAgainstOracle replays against the oracle); the
    // recurrence-heavy fuzz profile generates them reliably, so here we
    // only require that the storms actually happened.
    const auto machine = machine::cydra5();
    support::Rng rng(424242);
    const auto profile = workloads::fuzzProfile();
    support::Counters counters;
    std::int64_t displacements = 0;
    for (const auto& w : workloads::kernelLibrary())
        checkKernelAgainstOracle(w.loop, machine, counters,
                                 &displacements);
    for (int i = 0; i < 100; ++i) {
        const auto loop = workloads::generateLoop(
            rng, "storm_" + std::to_string(i), profile);
        checkKernelAgainstOracle(loop, machine, counters, &displacements);
    }
    EXPECT_GT(displacements, 50) << "corpus no longer exercises "
                                    "displacement storms; the downgrade "
                                    "path is untested";
    EXPECT_GT(counters.unscheduleSteps, 0u);
}

TEST(EstartTest, FuzzLoopsMatchOracle)
{
    const auto machine = machine::cydra5();
    support::Rng rng(20260808);
    const auto profile = workloads::fuzzProfile();
    support::Counters oracle_counters;
    for (int i = 0; i < 200; ++i) {
        const auto loop = workloads::generateLoop(
            rng, "estart_fuzz_" + std::to_string(i), profile);
        checkKernelAgainstOracle(loop, machine, oracle_counters);
    }
    EXPECT_GT(oracle_counters.estartIncrementalHits, 0u);
}

} // namespace
