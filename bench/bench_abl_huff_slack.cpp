/**
 * @file
 * Ablation: iterative modulo scheduling (this paper) vs a Huff-style
 * lifetime-sensitive bidirectional slack scheduler [18] — the companion
 * algorithm the paper credits for the MinDist formulation. Head-to-head
 * on II attainment, schedule length, register pressure (MaxLive /
 * rotating registers / MVE unroll) and effort.
 */
#include <iostream>

#include "codegen/lifetimes.hpp"
#include "codegen/mve.hpp"
#include "common.hpp"
#include "sched/schedule.hpp"

namespace {

using namespace ims;
using namespace ims::bench;

struct Row
{
    int atMii = 0;
    double iiRatio = 0.0;
    double sl = 0.0;
    double maxLive = 0.0;
    double unroll = 0.0;
    long long steps = 0;
    long long ops = 0;
    int loops = 0;
};

} // namespace

int
main()
{
    const auto machine = machine::cydra5();
    workloads::CorpusSpec spec;
    spec.perfectLoops = 250;
    spec.specLoops = 80;
    spec.lfkLoops = 27;
    const auto corpus = workloads::buildCorpus(spec);

    sched::ScheduleOptions options;
    options.search.budgetRatio = 6.0;
    sched::ScheduleOptions slack_options;
    slack_options.strategy = sched::SchedulerStrategy::kSlack;
    slack_options.search = options.search;

    Row ims_row, huff_row;
    for (const auto& w : corpus) {
        const auto g = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(g);

        auto account = [&](Row& row,
                           const sched::ModuloScheduleOutcome& outcome) {
            const auto violations = sched::verifySchedule(
                w.loop, machine, g, outcome.schedule);
            support::check(violations.empty(), [&] {
                return "illegal schedule from " + w.loop.name() + ": " +
                       violations[0].toString();
            });
            row.atMii += outcome.schedule.ii == outcome.mii;
            row.iiRatio += static_cast<double>(outcome.schedule.ii) /
                           outcome.mii;
            row.sl += outcome.schedule.scheduleLength;
            const auto lifetimes = codegen::analyzeLifetimes(
                w.loop, machine, outcome.schedule);
            const auto mve = codegen::planMve(w.loop, lifetimes,
                                              outcome.schedule.ii);
            row.maxLive += lifetimes.maxLive;
            row.unroll += mve.unroll;
            row.steps += outcome.totalSteps;
            row.ops += w.loop.size() + 2;
            ++row.loops;
        };

        account(ims_row,
                sched::schedule(w.loop, machine, g, sccs, options));
        account(huff_row,
                sched::schedule(w.loop, machine, g, sccs, slack_options));
    }

    support::TextTable table(
        "iterative modulo scheduling vs Huff-style slack scheduling (" +
        std::to_string(corpus.size()) + " loops, BudgetRatio 6)");
    table.addHeader({"Algorithm", "Loops at MII (%)", "Mean II/MII",
                     "Mean SL", "Mean MaxLive", "Mean MVE unroll",
                     "Steps/op"});
    auto add = [&table](const char* name, const Row& row) {
        table.addRow(
            {name,
             support::formatDouble(100.0 * row.atMii / row.loops, 1),
             support::formatDouble(row.iiRatio / row.loops, 4),
             support::formatDouble(row.sl / row.loops, 1),
             support::formatDouble(row.maxLive / row.loops, 2),
             support::formatDouble(row.unroll / row.loops, 2),
             support::formatDouble(
                 static_cast<double>(row.steps) / row.ops, 2)});
    };
    add("iterative modulo (paper)", ims_row);
    add("slack bidirectional (Huff)", huff_row);
    table.print(std::cout);

    std::cout
        << "\nExpected shape: both reach near-optimal IIs; the "
           "bidirectional placement shortens value\nlifetimes (lower "
           "MaxLive / MVE unroll, the point of [18]) at a higher "
           "per-operation cost\n(the slack scheduler recomputes its "
           "windows against the whole placed set).\n";
    return 0;
}
