#include "sched/attempt_state.hpp"

namespace ims::sched {

ScheduleResult
extractScheduleResult(const PartialSchedule& schedule,
                      const graph::DepGraph& graph, int ii,
                      std::int64_t steps_used, std::int64_t unschedules)
{
    ScheduleResult result;
    result.ii = ii;
    result.times.resize(graph.numOps());
    result.alternatives.resize(graph.numOps());
    for (graph::VertexId v = 0; v < graph.numOps(); ++v) {
        result.times[v] = schedule.timeOf(v);
        result.alternatives[v] = schedule.alternativeOf(v);
    }
    result.scheduleLength = schedule.timeOf(graph.stop());
    result.stepsUsed = steps_used;
    result.unschedules = unschedules;
    return result;
}

} // namespace ims::sched
