#ifndef IMS_SCHED_ITERATIVE_SCHEDULER_HPP
#define IMS_SCHED_ITERATIVE_SCHEDULER_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/dep_graph.hpp"
#include "graph/scc.hpp"
#include "ir/loop.hpp"
#include "machine/compiled_reservations.hpp"
#include "machine/machine_model.hpp"
#include "sched/attempt.hpp"
#include "sched/priority.hpp"
#include "support/cancellation.hpp"
#include "support/counters.hpp"

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

/** A complete modulo schedule for one II. */
struct ScheduleResult
{
    int ii = 0;
    /** Issue time per loop operation. */
    std::vector<int> times;
    /** Chosen machine alternative per loop operation. */
    std::vector<int> alternatives;
    /** Schedule time of STOP: the schedule length SL for one iteration. */
    int scheduleLength = 0;
    /** Operation scheduling steps consumed (the paper's budget unit). */
    std::int64_t stepsUsed = 0;
    /** Operations displaced during the attempt. */
    std::int64_t unschedules = 0;
};

/**
 * One invocation of the paper's IterativeSchedule (Figure 3): attempt to
 * schedule `loop` at initiation interval `ii` within `budget` operation
 * scheduling steps. Returns the schedule on success, std::nullopt when the
 * budget is exhausted (or no alternative of some operation is usable at
 * this II).
 *
 * The dependence graph and SCCs must correspond to `loop` on `machine`.
 *
 * A scheduler instance reuses its priority/reservation-table buffers
 * across candidate IIs and is therefore NOT safe for concurrent
 * trySchedule calls.
 */
class IterativeScheduler
{
  public:
    IterativeScheduler(const ir::Loop& loop,
                       const machine::MachineModel& machine,
                       const graph::DepGraph& graph,
                       const graph::SccResult& sccs,
                       IterativeScheduleOptions options = {},
                       support::Counters* counters = nullptr);

    /**
     * Attempt to find a schedule at `ii` within `budget` steps.
     *
     * When `cancel` is non-null it is polled once per budget-loop
     * iteration with key `ii`; a cancelled attempt abandons work within
     * one scheduling step and returns nullopt. `status`, when non-null,
     * reports why the attempt ended.
     */
    std::optional<ScheduleResult>
    trySchedule(int ii, std::int64_t budget,
                const support::CancellationToken* cancel = nullptr,
                AttemptStatus* status = nullptr);

  private:
    const ir::Loop& loop_;
    const machine::MachineModel& machine_;
    const graph::DepGraph& graph_;
    const graph::SccResult& sccs_;
    IterativeScheduleOptions options_;
    support::Counters* counters_;
    /** Priority/HeightR buffers reused across candidate IIs, so a failed
     *  attempt does not reallocate (see PriorityWorkspace). */
    PriorityWorkspace priorityWorkspace_;
    /** Reservation tables lowered to bitmasks, keyed by (alternative
     *  list, II); shared across every attempt of this scheduler. */
    machine::CompiledTableCache compiledCache_;
};

} // namespace ims::sched

#endif // IMS_SCHED_ITERATIVE_SCHEDULER_HPP
