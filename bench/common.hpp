#ifndef IMS_BENCH_COMMON_HPP
#define IMS_BENCH_COMMON_HPP

#include <algorithm>
#include <iostream>
#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/cydra5.hpp"
#include "mii/mii.hpp"
#include "mii/min_dist.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule.hpp"
#include "sched/verifier.hpp"
#include "support/counters.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "workloads/corpus.hpp"
#include "workloads/profile_model.hpp"

namespace ims::bench {

/** Everything the experiment harnesses measure about one loop. */
struct LoopRecord
{
    std::string name;
    std::string suite;
    /** Real operations in the loop body. */
    int ops = 0;
    /** Dependence-graph operations including START/STOP (Fig. 3's N). */
    int ddgOps = 0;
    /** Real dependence edges (the paper's E). */
    int edges = 0;
    int resMii = 1;
    int mii = 1;
    /** True RecMII (search from 1, for Table 3's max(0, Rec-Res)). */
    int trueRecMii = 1;
    int nonTrivialSccs = 0;
    /** Sizes of every SCC over real operations (for "nodes per SCC"). */
    std::vector<int> sccSizes;
    int ii = 1;
    int scheduleLength = 0;
    /** Lower bound on SL: max(MinDist[START,STOP] at MII, list SL). */
    int minScheduleLength = 0;
    int listScheduleLength = 0;
    /** Candidate IIs attempted. */
    int attempts = 1;
    /** Steps of the final, successful IterativeSchedule invocation. */
    long long stepsLastAttempt = 0;
    /** Steps across all attempts (failed ones expend the whole budget). */
    long long stepsTotal = 0;
    long long unschedules = 0;
    /** Per-activity instrumentation (aggregated over the whole run). */
    support::Counters counters;
};

/** Measure one loop under the given scheduling options. */
inline LoopRecord
measureLoop(const workloads::Workload& workload,
            const machine::MachineModel& machine,
            const sched::ScheduleOptions& options)
{
    const ir::Loop& loop = workload.loop;
    LoopRecord record;
    record.name = loop.name();
    record.suite = workload.suite;
    record.ops = loop.size();
    record.ddgOps = loop.size() + 2;

    const graph::DepGraph graph = graph::buildDepGraph(loop, machine);
    record.edges = graph.numRealEdges();
    const graph::SccResult sccs = graph::findSccs(graph, &record.counters);

    record.nonTrivialSccs = 0;
    for (const auto& component : sccs.components()) {
        if (graph.isPseudo(component.front()))
            continue;
        record.sccSizes.push_back(static_cast<int>(component.size()));
        if (component.size() > 1)
            ++record.nonTrivialSccs;
    }

    record.trueRecMii = mii::computeTrueRecMii(graph, sccs);

    const auto outcome = sched::schedule(loop, machine, graph, sccs,
                                         options, &record.counters);
    record.resMii = outcome.resMii;
    record.mii = outcome.mii;
    record.ii = outcome.schedule.ii;
    record.scheduleLength = outcome.schedule.scheduleLength;
    record.attempts = outcome.attempts;
    record.stepsLastAttempt = outcome.schedule.stepsUsed;
    record.stepsTotal = outcome.totalSteps;
    record.unschedules = outcome.totalUnschedules;

    const auto violations =
        sched::verifySchedule(loop, machine, graph, outcome.schedule);
    support::check(violations.empty(), [&] {
        return "illegal schedule for '" + loop.name() +
               "': " + violations[0].toString();
    });

    record.listScheduleLength =
        sched::listSchedule(loop, machine, graph).scheduleLength;
    const mii::MinDistMatrix dist(graph, record.mii);
    record.minScheduleLength = std::max<int>(
        static_cast<int>(dist.atVertex(graph.start(), graph.stop())),
        record.listScheduleLength);

    return record;
}

/** Measure the whole corpus (progress dots to stderr). */
inline std::vector<LoopRecord>
measureCorpus(const std::vector<workloads::Workload>& corpus,
              const machine::MachineModel& machine,
              const sched::ScheduleOptions& options)
{
    std::vector<LoopRecord> records;
    records.reserve(corpus.size());
    for (const auto& workload : corpus)
        records.push_back(measureLoop(workload, machine, options));
    return records;
}

/** Format a Table 3-style row from samples. */
inline std::vector<std::string>
distributionRow(const std::string& label, const std::vector<double>& samples,
                double min_possible, int precision = 2)
{
    const auto stats = support::summarize(samples, min_possible);
    return {label,
            support::formatDouble(stats.minPossible, 0),
            support::formatDouble(stats.freqOfMinPossible, 3),
            support::formatDouble(stats.median, 2),
            support::formatDouble(stats.mean, precision),
            support::formatDouble(stats.maximum, 2)};
}

/** The paper's execution-time pair for one record under a profile. */
struct ExecTime
{
    double actual = 0.0;
    double bound = 0.0;
};

inline ExecTime
executionTimes(const LoopRecord& record, const workloads::LoopProfile& p)
{
    ExecTime t;
    t.actual = workloads::executionTime(p, record.scheduleLength, record.ii);
    t.bound =
        workloads::executionTime(p, record.minScheduleLength, record.mii);
    return t;
}

} // namespace ims::bench

#endif // IMS_BENCH_COMMON_HPP
