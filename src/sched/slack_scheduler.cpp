#include <algorithm>
#include <cassert>
#include <cmath>

#include "mii/min_dist.hpp"
#include "sched/attempt_state.hpp"
#include "sched/partial_schedule.hpp"
#include "sched/schedule.hpp"

namespace ims::sched {

/**
 * A lifetime-sensitive, bidirectional slack modulo scheduler in the
 * style of Huff [18] — the alternative algorithm the paper credits for
 * the minimal cost-to-time-ratio (MinDist) formulation and contrasts
 * with its height-based operation scheduling.
 *
 * Per candidate II:
 *  - the full-graph MinDist matrix pins dynamic earliest (etime) and
 *    latest (ltime) start times against the currently placed operations,
 *    with START pre-placed at 0 and STOP pre-placed at the critical-path
 *    deadline MinDist[START, STOP];
 *  - operations are placed mindist-slack-first (ltime - etime); an
 *    operation with more unplaced successors than predecessors is placed
 *    as early as possible, otherwise as late as possible — the
 *    bidirectional rule that shortens value lifetimes;
 *  - when no conflict-free slot exists in the (II-wide) window, the
 *    operation is force-placed and conflicting neighbours are ejected,
 *    with the same forward-progress rule as iterative modulo scheduling;
 *  - the step budget is BudgetRatio * (N + 2), as in Figure 2/3.
 *
 * It runs under the same Figure-2 walk as the iterative backend, so the
 * two algorithms can be compared head to head (bench_abl_huff_slack).
 * sched::schedule() reaches it with SchedulerStrategy::kSlack through
 * detail::slackBackend below.
 */

namespace {

constexpr std::int64_t kInf = INT64_MAX / 4;

/**
 * One slack-scheduling attempt at a fixed II.
 *
 * Unlike the iterative scheduler, the (etime, ltime) window is computed
 * through the MinDist matrix against *every* placed vertex — a
 * transitive, bidirectional bound, not the one-edge-deep Estart of
 * Figure 5(b) — so the incremental EstartTracker does not apply here;
 * the shared AttemptCounters and ejection helpers do.
 */
class SlackAttempt
{
  public:
    SlackAttempt(const ir::Loop& loop,
                 const machine::MachineModel& machine,
                 const graph::DepGraph& graph, int ii,
                 support::Counters* counters)
        : graph_(graph),
          ii_(ii),
          dist_(graph, ii, counters),
          schedule_(graph, loop, machine, ii)
    {
    }

    bool
    run(std::int64_t budget, std::int64_t& steps_used,
        std::int64_t& unschedules)
    {
        if (!schedule_.allVerticesPlaceable()) {
            infeasible_ = true;
            return false;
        }

        const int deadline = static_cast<int>(
            dist_.atVertex(graph_.start(), graph_.stop()));

        schedule_.place(graph_.start(), 0, 0);
        --budget;
        // Pre-place STOP at the critical-path deadline so every ltime is
        // finite; it is ejected and re-placed if a forced placement
        // pushes past it.
        schedule_.place(graph_.stop(), deadline, 0);
        --budget;

        while (numUnplaced() > 0 && budget > 0) {
            const graph::VertexId op = pickMinSlack();
            const auto [etime, ltime] = window(op);
            const bool early = placeEarly(op);

            int slot = -1;
            int alternative = -1;
            if (etime <= ltime) {
                const std::int64_t lo = etime;
                const std::int64_t hi =
                    std::min<std::int64_t>(ltime, etime + ii_ - 1);
                if (early) {
                    for (std::int64_t t = lo; t <= hi; ++t) {
                        ++stats_.slotProbes;
                        alternative = schedule_.fittingAlternative(
                            op, static_cast<int>(t));
                        if (alternative >= 0) {
                            slot = static_cast<int>(t);
                            break;
                        }
                    }
                } else {
                    const std::int64_t down_lo =
                        std::max<std::int64_t>(lo, ltime - ii_ + 1);
                    for (std::int64_t t = ltime; t >= down_lo; --t) {
                        ++stats_.slotProbes;
                        alternative = schedule_.fittingAlternative(
                            op, static_cast<int>(t));
                        if (alternative >= 0) {
                            slot = static_cast<int>(t);
                            break;
                        }
                    }
                }
            }

            if (slot < 0) {
                // Forced placement with the forward-progress rule.
                if (schedule_.neverScheduled(op) ||
                    etime > schedule_.prevScheduleTime(op)) {
                    slot = static_cast<int>(etime);
                } else {
                    slot = schedule_.prevScheduleTime(op) + 1;
                }
                forceEject(op, slot, unschedules);
                alternative = schedule_.fittingAlternative(op, slot);
                assert(alternative >= 0);
            }

            schedule_.place(op, slot, alternative);
            // Because placement is bidirectional, both placed
            // predecessors and placed successors can end up violated;
            // eject them (they re-enter the worklist with updated
            // windows).
            const auto eject_victim = [this,
                                       &unschedules](graph::VertexId v) {
                eject(v, unschedules);
            };
            ejectViolatedSuccessors(graph_, schedule_, op, slot, ii_,
                                    eject_victim);
            ejectViolatedPredecessors(graph_, schedule_, op, slot, ii_,
                                      eject_victim);
            --budget;
            ++steps_used;
            ++stats_.scheduleSteps;
        }
        return numUnplaced() == 0;
    }

    const PartialSchedule& schedule() const { return schedule_; }

    /** True when this II is proven impossible (modulo self-collision). */
    bool provenInfeasible() const { return infeasible_; }

    /** Batched counter deltas, flushed once per attempt by the driver. */
    const AttemptCounters& stats() const { return stats_; }

  private:
    int
    numUnplaced() const
    {
        return graph_.numVertices() - schedule_.numScheduled();
    }

    /** Dynamic (etime, ltime) window against the placed operations. */
    std::pair<std::int64_t, std::int64_t>
    window(graph::VertexId op) const
    {
        std::int64_t etime = 0;
        std::int64_t ltime = kInf;
        for (graph::VertexId v = 0; v < graph_.numVertices(); ++v) {
            if (!schedule_.isScheduled(v) || v == op)
                continue;
            ++stats_.estartVisits;
            const std::int64_t to_op = dist_.atVertex(v, op);
            if (to_op != mii::MinDistMatrix::kMinusInf) {
                etime = std::max(etime, schedule_.timeOf(v) + to_op);
            }
            const std::int64_t from_op = dist_.atVertex(op, v);
            if (from_op != mii::MinDistMatrix::kMinusInf) {
                ltime = std::min(ltime,
                                 schedule_.timeOf(v) - from_op);
            }
        }
        if (ltime == kInf)
            ltime = etime + ii_ - 1; // e.g. a re-placed STOP
        return {etime, ltime};
    }

    graph::VertexId
    pickMinSlack()
    {
        graph::VertexId best = -1;
        std::int64_t best_slack = kInf;
        for (graph::VertexId v = 0; v < graph_.numVertices(); ++v) {
            if (schedule_.isScheduled(v))
                continue;
            const auto [etime, ltime] = window(v);
            const std::int64_t slack = ltime - etime;
            if (best < 0 || slack < best_slack) {
                best = v;
                best_slack = slack;
            }
        }
        assert(best >= 0);
        return best;
    }

    /** Huff's direction rule: early if more unplaced consumers wait. */
    bool
    placeEarly(graph::VertexId op) const
    {
        int unplaced_preds = 0;
        int unplaced_succs = 0;
        for (const graph::Dep& dep : graph_.inDeps(op)) {
            if (dep.other != op && !schedule_.isScheduled(dep.other))
                ++unplaced_preds;
        }
        for (const graph::Dep& dep : graph_.outDeps(op)) {
            if (dep.other != op && !schedule_.isScheduled(dep.other))
                ++unplaced_succs;
        }
        return unplaced_succs >= unplaced_preds;
    }

    void
    eject(graph::VertexId victim, std::int64_t& unschedules)
    {
        assert(victim != graph_.start());
        if (!schedule_.isScheduled(victim))
            return;
        schedule_.remove(victim);
        ++unschedules;
        ++stats_.unscheduleSteps;
    }

    /** Eject everything conflicting with any alternative at `slot`. */
    void
    forceEject(graph::VertexId op, int slot, std::int64_t& unschedules)
    {
        for (const auto& compiled : schedule_.compiledAlternativesOf(op)) {
            if (compiled.selfConflicts())
                continue;
            schedule_.mrt().conflictingOps(compiled, slot, conflictScratch_);
            for (int victim : conflictScratch_)
                eject(victim, unschedules);
        }
    }

    const graph::DepGraph& graph_;
    int ii_;
    bool infeasible_ = false;
    mii::MinDistMatrix dist_;
    PartialSchedule schedule_;
    /** Scratch for forceEject's conflict queries (no per-call alloc). */
    std::vector<int> conflictScratch_;
    /** Batched instrumentation; `window` is const, hence mutable. */
    mutable AttemptCounters stats_;
};

} // namespace

namespace detail {

ModuloScheduleOutcome
slackBackend(const ir::Loop& loop, const machine::MachineModel& machine,
             const graph::DepGraph& graph, const ScheduleOptions& options,
             const Walk& walk)
{
    const std::int64_t budget = std::max<std::int64_t>(
        2, static_cast<std::int64_t>(std::llround(
               options.search.budgetRatio * (loop.size() + 2))));

    // Every slack attempt builds its state (MinDist matrix, partial
    // schedule) from scratch, so nothing is reused across candidate IIs.
    const IiAttemptFn attempt = [&](int ii) {
        IiAttemptOutcome out;
        SlackAttempt attempt(loop, machine, graph, ii, &out.counters);
        std::int64_t steps = 0;
        std::int64_t unschedules = 0;
        const bool scheduled = attempt.run(budget, steps, unschedules);
        if (scheduled)
            out.status = AttemptStatus::kScheduled;
        else if (attempt.provenInfeasible())
            out.status = AttemptStatus::kInfeasible;
        else
            out.status = AttemptStatus::kBudgetExhausted;
        attempt.stats().flushInto(out.counters, attempt.schedule().mrt());
        if (scheduled) {
            out.schedule = extractScheduleResult(attempt.schedule(), graph,
                                                 ii, steps, unschedules);
        }
        return out;
    };

    return walk(budget, attempt, [&] {
        return "slack scheduler found no schedule for '" + loop.name() +
               "' within " + std::to_string(options.search.maxIiIncrease) +
               " IIs above the MII";
    });
}

} // namespace detail

} // namespace ims::sched
