#ifndef IMS_SCHED_ATTEMPT_STATE_HPP
#define IMS_SCHED_ATTEMPT_STATE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/dep_graph.hpp"
#include "sched/attempt.hpp"
#include "sched/partial_schedule.hpp"
#include "support/counters.hpp"

namespace ims::sched {

/**
 * Incremental Estart maintenance for Figure 5(b): per-op cached Estart
 * values updated by delta instead of re-walking every in-edge on each
 * scheduling step.
 *
 * Invariant: whenever `dirty` is clear for an op, the cached value equals
 *   max(0, max over scheduled predecessors p of
 *          time(p) + delay - II * distance)
 * — exactly what the from-scratch rescan computes. The delta rules keep
 * it that way:
 *
 *  - placing a predecessor only *adds* a bound, and max is monotone in
 *    its operands, so a clean successor is relaxed in place
 *    (onPlace: estart = max(estart, new bound));
 *  - removing a predecessor can *lower* the max, which a delta cannot
 *    express, so onRemove marks the successors dirty and the next query
 *    recomputes them from scratch (lazily — a displaced op's successors
 *    are often displaced themselves before anyone asks).
 *
 * An op's own placement or removal never changes its own Estart, so a
 * cached value survives the op being displaced and re-queried. Values are
 * bit-identical to the rescan by construction, which is what keeps
 * schedules and traces unchanged (tests/estart_test.cpp replays traces
 * against a from-scratch oracle to pin this).
 *
 * Instrumentation: a from-scratch (re)computation charges one
 * estartVisits per in-edge, exactly like the old rescan; a query served
 * from the cache charges one estartIncrementalHits instead.
 */
class EstartTracker
{
  public:
    EstartTracker(const graph::DepGraph& graph,
                  const PartialSchedule& schedule, AttemptCounters& stats)
        : graph_(graph),
          schedule_(schedule),
          stats_(stats),
          ii_(schedule.ii()),
          estart_(graph.numVertices(), 0),
          dirty_(graph.numVertices(), 1)
    {
    }

    /** Figure 5(b): only currently scheduled predecessors constrain. */
    int
    estart(graph::VertexId op)
    {
        if (!dirty_[op]) {
            ++stats_.estartIncrementalHits;
            return estart_[op];
        }
        const auto deps = graph_.inDeps(op);
        stats_.estartVisits += deps.size();
        std::int64_t estart = 0;
        for (const graph::Dep& dep : deps) {
            if (dep.other == op || !schedule_.isScheduled(dep.other))
                continue;
            const std::int64_t bound =
                schedule_.timeOf(dep.other) + dep.delay -
                static_cast<std::int64_t>(ii_) * dep.distance;
            estart = std::max(estart, bound);
        }
        estart_[op] = static_cast<std::int32_t>(estart);
        dirty_[op] = 0;
        return estart_[op];
    }

    /** `op` was just placed at `time`: relax its clean successors. */
    void
    onPlace(graph::VertexId op, int time)
    {
        for (const graph::Dep& dep : graph_.outDeps(op)) {
            if (dep.other == op || dirty_[dep.other])
                continue;
            const std::int64_t bound =
                static_cast<std::int64_t>(time) + dep.delay -
                static_cast<std::int64_t>(ii_) * dep.distance;
            if (bound > estart_[dep.other])
                estart_[dep.other] = static_cast<std::int32_t>(bound);
        }
    }

    /** `op` was just displaced: its successors must recompute lazily. */
    void
    onRemove(graph::VertexId op)
    {
        for (const graph::Dep& dep : graph_.outDeps(op)) {
            if (dep.other != op)
                dirty_[dep.other] = 1;
        }
    }

  private:
    const graph::DepGraph& graph_;
    const PartialSchedule& schedule_;
    AttemptCounters& stats_;
    int ii_;
    std::vector<std::int32_t> estart_;
    std::vector<std::uint8_t> dirty_;
};

/**
 * Displace every scheduled successor of `op` whose dependence constraint
 * SchedTime(succ) >= slot + delay - II * distance is violated by placing
 * `op` at `slot` (§3.4's Schedule(); predecessor constraints hold by
 * construction when placement respects Estart). `eject(victim)` must
 * remove the victim from the schedule.
 */
template <typename EjectFn>
void
ejectViolatedSuccessors(const graph::DepGraph& graph,
                        const PartialSchedule& schedule,
                        graph::VertexId op, int slot, int ii,
                        EjectFn&& eject)
{
    for (const graph::Dep& dep : graph.outDeps(op)) {
        if (dep.other == op || !schedule.isScheduled(dep.other))
            continue;
        const std::int64_t earliest =
            static_cast<std::int64_t>(slot) + dep.delay -
            static_cast<std::int64_t>(ii) * dep.distance;
        if (schedule.timeOf(dep.other) < earliest)
            eject(dep.other);
    }
}

/**
 * The mirror direction for bidirectional (slack) placement: displace
 * every scheduled predecessor scheduled later than placing `op` at
 * `slot` allows. START is never ejected.
 */
template <typename EjectFn>
void
ejectViolatedPredecessors(const graph::DepGraph& graph,
                          const PartialSchedule& schedule,
                          graph::VertexId op, int slot, int ii,
                          EjectFn&& eject)
{
    for (const graph::Dep& dep : graph.inDeps(op)) {
        if (dep.other == op || !schedule.isScheduled(dep.other) ||
            dep.other == graph.start()) {
            continue;
        }
        const std::int64_t latest =
            static_cast<std::int64_t>(slot) - dep.delay +
            static_cast<std::int64_t>(ii) * dep.distance;
        if (schedule.timeOf(dep.other) > latest)
            eject(dep.other);
    }
}

/**
 * Copy a completed attempt's placement out of the partial schedule into
 * the caller-facing ScheduleResult (shared verbatim by both schedulers).
 */
ScheduleResult extractScheduleResult(const PartialSchedule& schedule,
                                     const graph::DepGraph& graph, int ii,
                                     std::int64_t steps_used,
                                     std::int64_t unschedules);

} // namespace ims::sched

#endif // IMS_SCHED_ATTEMPT_STATE_HPP
