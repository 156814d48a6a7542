#ifndef IMS_SCHED_ATTEMPT_FEEDBACK_HPP
#define IMS_SCHED_ATTEMPT_FEEDBACK_HPP

#include <cstdint>
#include <vector>

#include "graph/dep_graph.hpp"

namespace ims::support {
struct Counters;
} // namespace ims::support

namespace ims::sched {

class ModuloReservationTable;

/**
 * The strategy-neutral attempt vocabulary shared by every scheduling
 * backend (iterative, slack, exact) and every II-search strategy: why an
 * attempt ended, the per-step trace events, the batched hot-path
 * counters, and the AttemptFeedback report the feedback-guided II search
 * mines after a failed attempt.
 */

/** Why one schedule attempt ended the way it did. */
enum class AttemptStatus
{
    /** A complete legal modulo schedule was produced. */
    kScheduled,
    /** The step budget ran out with operations still unscheduled. */
    kBudgetExhausted,
    /** Some operation has no usable alternative at this II. */
    kInfeasible,
    /** The cancellation token's ceiling dropped below this II mid-run. */
    kCancelled,
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

/**
 * What a failed attempt learned, reported by every backend through
 * IiAttemptOutcome so an II-search strategy can consume it (see
 * docs/ALGORITHM.md, "Feedback-guided search"). Population is gated on a
 * caller-provided sink — when nobody asks, the hot path does not pay for
 * collection.
 *
 * The report names the attempt's *bottleneck*: the operations that could
 * not be placed at all (no usable alternative at this II), the
 * displacement storm (operations evicted most often while the budget
 * burned down), and the resource classes whose occupancy forced those
 * evictions. The feedback II search closes the storm vertices under
 * their dependence SCCs and hands the induced subgraph to the exact
 * backend to prove candidate IIs infeasible without attempting them.
 */
struct AttemptFeedback
{
    /** One storm entry: an operation and how often it was displaced. */
    struct Displacement
    {
        graph::VertexId op = -1;
        std::int32_t count = 0;
    };

    /** One contended resource class and the evictions it forced. */
    struct ResourceContention
    {
        int resource = -1;
        std::int64_t evictions = 0;
    };

    /** Candidate II of the attempt this report describes. */
    int ii = 0;
    /** Why the attempt ended. */
    AttemptStatus status = AttemptStatus::kBudgetExhausted;
    /** Operations with no usable alternative at `ii` (ascending id).
     *  Non-empty exactly when `status` is kInfeasible for the heuristic
     *  backends — their only infeasibility proof. */
    std::vector<graph::VertexId> unplaceable;
    /** Displacement storm, sorted by count descending then id ascending
     *  (deterministic: pure function of the attempt). */
    std::vector<Displacement> displacements;
    /** Resource classes whose occupancy forced evictions, sorted by
     *  eviction count descending then resource id ascending. */
    std::vector<ResourceContention> contendedResources;

    /** True when the report carries a usable bottleneck signal. */
    bool
    conclusive() const
    {
        return !unplaceable.empty() || !displacements.empty();
    }

    /**
     * The bottleneck vertices, at most `cap` of them: unplaceable
     * operations first (they alone prove infeasibility), then storm
     * vertices in storm order, deduplicated.
     */
    std::vector<graph::VertexId> bottleneck(int cap) const;

    /** Reset to the empty (inconclusive) report. */
    void clear();
};

} // namespace ims::sched

#endif // IMS_SCHED_ATTEMPT_FEEDBACK_HPP
