#ifndef IMS_SCHED_ATTEMPT_HPP
#define IMS_SCHED_ATTEMPT_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/dep_graph.hpp"
#include "support/counters.hpp"

namespace ims::sched {

class ModuloReservationTable;

/**
 * The attempt vocabulary shared by every scheduling backend (iterative,
 * slack, exact) and the Figure-2 walk: the schedule an attempt yields,
 * why it ended, its per-step trace events and its batched hot-path
 * counters.
 */

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

/** Why one schedule attempt ended the way it did. */
enum class AttemptStatus
{
    /** A complete legal modulo schedule was produced. */
    kScheduled,
    /** The step budget ran out with operations still unscheduled. */
    kBudgetExhausted,
    /** Some operation has no usable alternative at this II. */
    kInfeasible,
};

/**
 * One schedule attempt at a fixed candidate II, as every backend returns
 * it. `counters` is the attempt's *own* counter delta; `status` reports
 * *why* the attempt ended — in particular it distinguishes kInfeasible
 * (this II is proven impossible; re-trying with a larger budget is
 * pointless) from kBudgetExhausted (undecided).
 */
struct IiAttemptOutcome
{
    std::optional<ScheduleResult> schedule;
    AttemptStatus status = AttemptStatus::kBudgetExhausted;
    support::Counters counters;
};

/**
 * One operation-scheduling step, for tracing/visualising the algorithm
 * (the moving parts of Figures 2-5: the chosen operation and its
 * priority, the Estart computation, the FindTimeSlot range and outcome,
 * and any displacements).
 */
struct TraceEvent
{
    int step = 0;
    graph::VertexId op = -1;
    std::int64_t priority = 0;
    int estart = 0;
    int minTime = 0;
    int maxTime = 0;
    /** Chosen slot. */
    int slot = 0;
    /** Chosen alternative. */
    int alternative = 0;
    /** True when no conflict-free slot existed (forced placement). */
    bool forced = false;
    /** Operations displaced by this placement (resource or dependence). */
    std::vector<graph::VertexId> displaced;
    /**
     * The subset of `displaced` evicted to free the *chosen* alternative's
     * resources (forced placements only; §3.4/Figure 4). The remainder of
     * `displaced` are successors displaced for dependence violations.
     */
    std::vector<graph::VertexId> resourceDisplaced;
};

/**
 * Per-attempt instrumentation shared by the iterative and slack
 * schedulers: plain members bumped on the hot path, flushed once per
 * attempt into the unified support::Counters (the hot loop never touches
 * the shared struct). Both schedulers used to carry a private copy of
 * these fields; this is the single owner.
 */
struct AttemptCounters
{
    /** Predecessor/vertex examinations while computing Estart windows. */
    std::uint64_t estartVisits = 0;
    /** Estart queries answered from the incremental cache, no rescan. */
    std::uint64_t estartIncrementalHits = 0;
    /** Time slots examined by FindTimeSlot. */
    std::uint64_t slotProbes = 0;
    /** Operation scheduling steps performed. */
    std::uint64_t scheduleSteps = 0;
    /** Operations displaced from the schedule. */
    std::uint64_t unscheduleSteps = 0;

    /** One batched delta per attempt into the unified counters. */
    void flushInto(support::Counters& counters,
                   const ModuloReservationTable& mrt) const;
};

} // namespace ims::sched

#endif // IMS_SCHED_ATTEMPT_HPP
