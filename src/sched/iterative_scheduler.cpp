#include "sched/iterative_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sched/attempt_state.hpp"
#include "sched/partial_schedule.hpp"
#include "sched/ready_queue.hpp"
#include "sched/schedule.hpp"

namespace ims::sched {

namespace {

/**
 * Working state of one attempt; separated from IterativeScheduler so the
 * scheduler object itself stays reusable across IIs.
 *
 * The attempt keeps its instrumentation in an AttemptCounters instead of
 * bumping a support::Counters* on every inner-loop iteration; the
 * scheduler flushes one batched delta per attempt into the outcome's
 * counters (see IterativeScheduler::trySchedule).
 *
 * Estart is maintained incrementally by an EstartTracker (delta updates
 * on place/displace instead of a per-step in-edge rescan); the values it
 * returns are bit-identical to the rescan, so schedules and traces are
 * unchanged.
 */
class Attempt
{
  public:
    Attempt(const ir::Loop& loop, const machine::MachineModel& machine,
            const graph::DepGraph& graph,
            const std::vector<std::int64_t>& priority,
            const IterativeScheduleOptions& options, int ii)
        : graph_(graph),
          priority_(priority),
          options_(options),
          ii_(ii),
          schedule_(graph, loop, machine, ii),
          estart_(graph, schedule_, stats_),
          ready_(priority)
    {
    }

    /** Runs Figure 3's main loop. Returns true if fully scheduled. */
    bool
    run(std::int64_t budget)
    {
        if (!schedule_.allVerticesPlaceable()) {
            status_ = AttemptStatus::kInfeasible;
            return false;
        }

        // Schedule START at time 0.
        schedule_.place(graph_.start(), 0, 0);
        estart_.onPlace(graph_.start(), 0);
        ready_.erase(graph_.start());
        --budget;
        ++stats_.scheduleSteps;

        while (!ready_.empty() && budget > 0) {
            const graph::VertexId op = ready_.top();
            const int estart = estart_.estart(op);
            const int min_time = estart;
            const int max_time = min_time + ii_ - 1;
            const auto [slot, alternative] =
                findTimeSlot(op, min_time, max_time);

            TraceEvent event;
            if (options_.trace != nullptr) {
                event.step = static_cast<int>(stats_.scheduleSteps);
                event.op = op;
                event.priority = priority_[op];
                event.estart = estart;
                event.minTime = min_time;
                event.maxTime = max_time;
                event.slot = slot;
                event.forced = alternative < 0;
                displacedThisStep_.clear();
                resourceDisplacedThisStep_.clear();
            }

            scheduleAt(op, slot, alternative);
            --budget;
            ++stats_.scheduleSteps;

            if (options_.trace != nullptr) {
                event.alternative = schedule_.alternativeOf(op);
                event.displaced = displacedThisStep_;
                event.resourceDisplaced = resourceDisplacedThisStep_;
                options_.trace->push_back(std::move(event));
            }
        }
        if (ready_.empty()) {
            status_ = AttemptStatus::kScheduled;
            return true;
        }
        status_ = AttemptStatus::kBudgetExhausted;
        return false;
    }

    AttemptStatus status() const { return status_; }
    std::int64_t
    stepsUsed() const
    {
        return static_cast<std::int64_t>(stats_.scheduleSteps);
    }
    std::int64_t
    unschedules() const
    {
        return static_cast<std::int64_t>(stats_.unscheduleSteps);
    }
    const AttemptCounters& stats() const { return stats_; }
    const PartialSchedule& schedule() const { return schedule_; }

  private:
    /**
     * Figure 4. Returns (slot, alternative); alternative is -1 when no
     * conflict-free slot exists (forced placement).
     *
     * One word-parallel slot scan per (non-self-conflicting) alternative
     * replaces the former slot-by-slot probe loop: each scan tests all
     * II candidate times of the window at once against the MRT's
     * per-resource bitsets. The chosen (slot, alternative) is the
     * lexicographic minimum — earliest slot, then lowest alternative
     * index — exactly what the slot-by-slot, alternative-by-alternative
     * loop produced, so schedules are bit-identical.
     */
    std::pair<int, int>
    findTimeSlot(graph::VertexId op, int min_time, int max_time)
    {
        assert(max_time - min_time + 1 == ii_);
        const auto& compiled = schedule_.compiledAlternativesOf(op);
        int best_slot = -1;
        int best_alternative = -1;
        for (std::size_t alt = 0; alt < compiled.size(); ++alt) {
            if (compiled[alt].selfConflicts())
                continue;
            const int slot =
                schedule_.mrt().firstFreeSlot(compiled[alt], min_time);
            if (slot < 0)
                continue;
            if (best_slot < 0 || slot < best_slot) {
                best_slot = slot;
                best_alternative = static_cast<int>(alt);
            }
            if (best_slot == min_time)
                break; // no alternative can beat the window's start
        }
        if (best_slot >= 0) {
            // Keep the Table-4 probe metric comparable: the slot-by-slot
            // loop this scan replaced examined every slot up to the hit.
            stats_.slotProbes +=
                static_cast<std::uint64_t>(best_slot - min_time + 1);
            return {best_slot, best_alternative};
        }
        stats_.slotProbes +=
            static_cast<std::uint64_t>(max_time - min_time + 1);
        // No conflict-free slot: pick per the forward-progress rule.
        int slot;
        if (!options_.forwardProgressRule) {
            slot = min_time;
        } else if (schedule_.neverScheduled(op) ||
                   min_time > schedule_.prevScheduleTime(op)) {
            slot = min_time;
        } else {
            slot = schedule_.prevScheduleTime(op) + 1;
        }
        return {slot, -1};
    }

    /** §3.4's Schedule(): place `op`, displacing whatever conflicts. */
    void
    scheduleAt(graph::VertexId op, int slot, int alternative)
    {
        if (alternative < 0) {
            // Forced placement (Figure 4): choose the first alternative
            // usable at this II and displace only the operations holding
            // *its* resources — evicting victims of the alternatives not
            // chosen would inflate the unschedule count for nothing.
            const auto& compiled = schedule_.compiledAlternativesOf(op);
            for (std::size_t alt = 0; alt < compiled.size(); ++alt) {
                if (compiled[alt].selfConflicts())
                    continue;
                alternative = static_cast<int>(alt);
                break;
            }
            assert(alternative >= 0 &&
                   "allVerticesPlaceable guarantees a usable alternative");
            schedule_.mrt().conflictingOps(compiled[alternative], slot,
                                           conflictScratch_);
            if (options_.trace != nullptr)
                resourceDisplacedThisStep_ = conflictScratch_;
            for (int victim : conflictScratch_)
                displace(victim);
        }
        schedule_.place(op, slot, alternative);
        estart_.onPlace(op, slot);
        ready_.erase(op);

        // Displace successors whose dependence constraints are violated.
        // (Predecessor constraints hold by construction: slot >= Estart.)
        ejectViolatedSuccessors(graph_, schedule_, op, slot, ii_,
                                [this](graph::VertexId victim) {
                                    displace(victim);
                                });
    }

    void
    displace(graph::VertexId victim)
    {
        assert(victim != graph_.start() && "START is never displaced");
        if (!schedule_.isScheduled(victim))
            return;
        schedule_.remove(victim);
        estart_.onRemove(victim);
        ready_.push(victim);
        ++stats_.unscheduleSteps;
        if (options_.trace != nullptr)
            displacedThisStep_.push_back(victim);
    }

    const graph::DepGraph& graph_;
    const std::vector<std::int64_t>& priority_;
    const IterativeScheduleOptions& options_;
    int ii_;
    AttemptStatus status_ = AttemptStatus::kBudgetExhausted;
    AttemptCounters stats_;
    PartialSchedule schedule_;
    EstartTracker estart_;
    ReadyQueue ready_;
    /** Scratch for forced-placement conflict queries (no per-call alloc). */
    std::vector<int> conflictScratch_;
    std::vector<graph::VertexId> displacedThisStep_;
    std::vector<graph::VertexId> resourceDisplacedThisStep_;
};

} // namespace

IterativeScheduler::IterativeScheduler(const ir::Loop& loop,
                                       const machine::MachineModel& machine,
                                       const graph::DepGraph& graph,
                                       const graph::SccResult& sccs,
                                       IterativeScheduleOptions options)
    : loop_(loop),
      machine_(machine),
      graph_(graph),
      sccs_(sccs),
      options_(options)
{
    assert(loop.size() == graph.numOps());
}

IiAttemptOutcome
IterativeScheduler::trySchedule(int ii, std::int64_t budget)
{
    IiAttemptOutcome out;
    computePrioritiesInto(graph_, sccs_, ii, options_.priority,
                          options_.randomSeed, &out.counters,
                          priorityWorkspace_);

    Attempt attempt(loop_, machine_, graph_, priorityWorkspace_.priorities,
                    options_, ii);
    const bool success = attempt.run(budget);
    out.status = attempt.status();

    // One batched delta per attempt; the walk folds it into the unified
    // telemetry counters, so the hot loop never touches a shared struct.
    attempt.stats().flushInto(out.counters, attempt.schedule().mrt());

    if (success) {
        out.schedule = extractScheduleResult(attempt.schedule(), graph_, ii,
                                             attempt.stepsUsed(),
                                             attempt.unschedules());
    }
    return out;
}

namespace detail {

ModuloScheduleOutcome
iterativeBackend(const ir::Loop& loop, const machine::MachineModel& machine,
                 const graph::DepGraph& graph, const graph::SccResult& sccs,
                 const ScheduleOptions& options, const Walk& walk)
{
    // NumberOfOperations in Figure 2/3 counts the dependence-graph
    // operations including the START/STOP pseudo-ops (operation 1 is
    // START), so a BudgetRatio of 1 affords exactly one scheduling step
    // per vertex.
    const std::int64_t budget = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::llround(
               options.search.budgetRatio * (loop.size() + 2))));

    IterativeScheduleOptions inner;
    inner.priority = options.priority;
    inner.forwardProgressRule = options.forwardProgressRule;
    inner.randomSeed = options.randomSeed;
    inner.trace = options.trace;

    // One scheduler for the whole walk: trySchedule reuses its priority
    // buffers across candidate IIs.
    IterativeScheduler scheduler(loop, machine, graph, sccs, inner);
    const IiAttemptFn attempt = [&](int ii) {
        return scheduler.trySchedule(ii, budget);
    };

    return walk(budget, attempt, [&] {
        return "no modulo schedule found for loop '" + loop.name() +
               "' within " + std::to_string(options.search.maxIiIncrease) +
               " IIs above the MII";
    });
}

} // namespace detail

} // namespace ims::sched
