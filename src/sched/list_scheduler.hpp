#ifndef IMS_SCHED_LIST_SCHEDULER_HPP
#define IMS_SCHED_LIST_SCHEDULER_HPP

#include <vector>

#include "graph/dep_graph.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"
#include "support/counters.hpp"
#include "support/telemetry.hpp"

namespace ims::sched {

/** Result of acyclic list scheduling one loop iteration. */
struct ListScheduleResult
{
    /** Issue time per loop operation. */
    std::vector<int> times;
    /** Chosen alternative per loop operation. */
    std::vector<int> alternatives;
    /** Completion time of the whole iteration (STOP's time). */
    int scheduleLength = 0;
};

/**
 * Baseline acyclic list scheduler: operation scheduling in height-priority
 * order over the intra-iteration (distance-0) subgraph, with a linear
 * (non-modulo) reservation table and an unbounded MaxTime, exactly the
 * degenerate case §3.1 describes ("if MaxTime is infinite and a regular,
 * linear schedule reservation table is employed, the functioning of
 * FindTimeSlot is just as it would be for list scheduling").
 *
 * Its schedule length provides (together with MinDist[START, STOP]) the
 * lower bound on the modulo schedule length used in Table 3, and its cost
 * per operation is the paper's baseline for scheduling effort.
 *
 * @throws support::CodedError "sched.too_large" when the schedule's
 *         times could exceed an int (sched::TimeBound).
 */
ListScheduleResult listSchedule(const ir::Loop& loop,
                                const machine::MachineModel& machine,
                                const graph::DepGraph& graph,
                                support::Counters* counters = nullptr,
                                support::TelemetrySink* sink = nullptr);

} // namespace ims::sched

#endif // IMS_SCHED_LIST_SCHEDULER_HPP
