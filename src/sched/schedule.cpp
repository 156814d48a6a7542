#include "sched/schedule.hpp"

#include "graph/graph_builder.hpp"
#include "mii/mii.hpp"
#include "sched/time_bound.hpp"
#include "support/error.hpp"

namespace ims::sched {

std::string
schedulerStrategyName(SchedulerStrategy strategy)
{
    switch (strategy) {
      case SchedulerStrategy::kIterative:
        return "iterative";
      case SchedulerStrategy::kSlack:
        return "slack";
      case SchedulerStrategy::kExact:
        return "exact";
    }
    return "?";
}

std::optional<SchedulerStrategy>
schedulerStrategyByName(std::string_view name)
{
    if (name == "iterative")
        return SchedulerStrategy::kIterative;
    if (name == "slack")
        return SchedulerStrategy::kSlack;
    if (name == "exact")
        return SchedulerStrategy::kExact;
    return std::nullopt;
}

ModuloScheduleOutcome
schedule(const ir::Loop& loop, const machine::MachineModel& machine,
         const graph::DepGraph& graph, const graph::SccResult& sccs,
         const ScheduleOptions& options, support::Counters* counters)
{
    support::check(options.search.budgetRatio > 0,
                   "BudgetRatio must be positive");
    support::check(options.search.maxIiIncrease >= 0,
                   "maxIiIncrease must be non-negative");
    support::check(options.trace == nullptr ||
                       options.strategy == SchedulerStrategy::kIterative,
                   "trace capture requires the iterative backend");

    // The walk every backend runs under: compute the MII, then walk the
    // candidate IIs, each after checking that its times fit in an int
    // (the exact backend's node budget does not move its times).
    const detail::Walk walk =
        [&](std::int64_t budget, const IiAttemptFn& attempt,
            const std::function<std::string()>& exhausted_message) {
            const mii::MiiResult mii = mii::computeMii(
                loop, machine, graph, sccs, counters, options.telemetry);
            const TimeBound bound(
                loop, machine, graph,
                options.strategy == SchedulerStrategy::kExact ? 0 : budget);
            const IiAttemptFn bounded = [&bound, &attempt](int ii) {
                bound.check(ii);
                return attempt(ii);
            };
            ModuloScheduleOutcome outcome = runIiSearch(
                options.search, mii.resMii, mii.mii, budget, bounded,
                counters, options.telemetry, exhausted_message);
            outcome.scheduler = schedulerStrategyName(options.strategy);
            return outcome;
        };
    switch (options.strategy) {
      case SchedulerStrategy::kIterative:
        return detail::iterativeBackend(loop, machine, graph, sccs, options,
                                        walk);
      case SchedulerStrategy::kSlack:
        return detail::slackBackend(loop, machine, graph, options, walk);
      case SchedulerStrategy::kExact:
        return detail::exactBackend(loop, machine, graph, sccs, options,
                                    walk);
    }
    throw support::Error("unknown scheduler strategy");
}

ModuloScheduleOutcome
schedule(const ir::Loop& loop, const machine::MachineModel& machine,
         const ScheduleOptions& options, support::Counters* counters)
{
    const graph::DepGraph graph = graph::buildDepGraph(loop, machine);
    const graph::SccResult sccs = graph::findSccs(graph);
    return schedule(loop, machine, graph, sccs, options, counters);
}

} // namespace ims::sched
