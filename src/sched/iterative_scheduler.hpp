#ifndef IMS_SCHED_ITERATIVE_SCHEDULER_HPP
#define IMS_SCHED_ITERATIVE_SCHEDULER_HPP

#include <cstdint>
#include <vector>

#include "graph/dep_graph.hpp"
#include "graph/scc.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"
#include "sched/attempt.hpp"
#include "sched/priority.hpp"

namespace ims::sched {

/** Options for one iterative-scheduling attempt. */
struct IterativeScheduleOptions
{
    PriorityScheme priority = PriorityScheme::kHeightR;
    /**
     * The forward-progress rule of §3.4: when re-placing a previously
     * scheduled operation whose Estart does not exceed its previous slot,
     * schedule it one cycle later than before so two operations cannot
     * displace each other endlessly. Disabling this (ablation) always
     * chooses Estart.
     */
    bool forwardProgressRule = true;
    /** Seed for PriorityScheme::kRandom. */
    std::uint64_t randomSeed = 1;
    /** When non-null, every scheduling step is appended here. */
    std::vector<TraceEvent>* trace = nullptr;
};

/**
 * One invocation of the paper's IterativeSchedule (Figure 3): attempt to
 * schedule `loop` at initiation interval `ii` within `budget` operation
 * scheduling steps. The outcome carries the schedule on success; on
 * failure its status says whether the budget ran out or some operation
 * has no usable alternative at this II.
 *
 * The dependence graph and SCCs must correspond to `loop` on `machine`.
 *
 * A scheduler instance reuses its priority buffers across candidate IIs
 * and is therefore NOT safe for concurrent trySchedule calls.
 */
class IterativeScheduler
{
  public:
    IterativeScheduler(const ir::Loop& loop,
                       const machine::MachineModel& machine,
                       const graph::DepGraph& graph,
                       const graph::SccResult& sccs,
                       IterativeScheduleOptions options = {});

    /**
     * Attempt to find a schedule at `ii` within `budget` steps. The
     * outcome's counters hold this attempt's own delta (priority
     * computation included).
     */
    IiAttemptOutcome trySchedule(int ii, std::int64_t budget);

  private:
    const ir::Loop& loop_;
    const machine::MachineModel& machine_;
    const graph::DepGraph& graph_;
    const graph::SccResult& sccs_;
    IterativeScheduleOptions options_;
    /** Priority/HeightR buffers reused across candidate IIs, so a failed
     *  attempt does not reallocate (see PriorityWorkspace). */
    PriorityWorkspace priorityWorkspace_;
};

} // namespace ims::sched

#endif // IMS_SCHED_ITERATIVE_SCHEDULER_HPP
