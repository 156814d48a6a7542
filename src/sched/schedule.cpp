#include "sched/schedule.hpp"

#include "graph/graph_builder.hpp"
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
    support::check(options.search.feedbackSubgraphCap > 0,
                   "feedbackSubgraphCap must be positive");
    support::check(options.search.feedbackProbeBudget > 0,
                   "feedbackProbeBudget must be positive");
    support::check(options.trace == nullptr ||
                       (options.search.kind == IiSearchKind::kLinear &&
                        options.strategy == SchedulerStrategy::kIterative),
                   "trace capture requires the iterative backend under the "
                   "linear II search");
    switch (options.strategy) {
      case SchedulerStrategy::kIterative:
        return detail::runIterativeSchedule(loop, machine, graph, sccs,
                                            options, counters);
      case SchedulerStrategy::kSlack:
        return detail::runSlackSchedule(loop, machine, graph, sccs, options,
                                        counters);
      case SchedulerStrategy::kExact:
        return detail::runExactSchedule(loop, machine, graph, sccs, options,
                                        counters);
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
