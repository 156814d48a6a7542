#ifndef IMS_SCHED_EXACT_SCHEDULER_HPP
#define IMS_SCHED_EXACT_SCHEDULER_HPP

#include <cstdint>
#include <optional>

#include "graph/dep_graph.hpp"
#include "graph/scc.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"
#include "mii/min_dist.hpp"
#include "sched/attempt.hpp"
#include "sched/priority.hpp"

namespace ims::sched {

/**
 * Default node budget for one exact attempt at one candidate II. Sized so
 * every kernel-corpus loop of up to ~20 operations is decided (feasible
 * schedule found, or infeasibility proven) well within the budget on the
 * default machines; see bench_opt_gap.
 */
inline constexpr std::int64_t kDefaultExactNodeBudget = 4'000'000;

/**
 * An exact (complete) modulo scheduler: for a fixed candidate II it
 * *decides* feasibility by exhaustive branch-and-bound, where the
 * iterative and slack schedulers only ever give a one-sided "found a
 * schedule" answer. Its AttemptStatus::kInfeasible is therefore a proof:
 * no modulo schedule exists at this II on this machine.
 *
 * Encoding (see docs/ALGORITHM.md, "Exact backend & optimality gaps").
 * Every schedule time decomposes as t_v = k_v * II + r_v with residue
 * r_v in [0, II). Resource legality depends only on the residues (the
 * MRT has exactly II rows), and once the residues are fixed the
 * dependence constraints
 *     t_to >= t_from + delay - II * distance
 * become difference constraints on the integers k_v:
 *     k_to - k_from >= ceil((delay - II*distance - (r_to - r_from)) / II),
 * solvable exactly by a longest-path computation. The search therefore
 * branches only over (residue, alternative) pairs per operation and runs
 * a Bellman-Ford leaf check; it never enumerates absolute time slots, so
 * completeness does not depend on any time horizon.
 *
 * Pruning, all deterministic:
 *  - candidate IIs whose MinDist matrix has a positive diagonal are
 *    rejected before any search (the §2.2 recurrence test);
 *  - a partial residue assignment is pruned when some placed pair
 *    (u, v) admits no dependence distance d == (r_v - r_u) (mod II)
 *    inside the window [MinDist[u][v], -MinDist[v][u]];
 *  - alternatives whose compiled reservation tables are bit-identical
 *    at this II are collapsed to the lowest-index representative
 *    (dominance/symmetry pruning), and modulo self-colliding
 *    alternatives are dropped entirely;
 *  - the first branched operation is pinned to residue 0: rotating a
 *    schedule by a constant preserves legality, so every feasible
 *    residue class contains such a representative.
 *
 * The node budget counts units of bounded work — each residue candidate
 * scanned, each (residue, alternative) pair probed against the MRT, and
 * each Bellman-Ford pass of a leaf solve — so it bounds wall time on any
 * machine shape, not just the candidate count. The count is a pure
 * function of the inputs, so exhaustion is bit-identical across thread
 * counts and runs. A budget-exhausted attempt reports
 * AttemptStatus::kBudgetExhausted — *not* infeasibility.
 *
 * Like IterativeScheduler, an instance reuses buffers (MinDist matrix,
 * HeightR) across candidate IIs and is not safe for concurrent
 * trySchedule calls.
 */
class ExactScheduler
{
  public:
    ExactScheduler(const ir::Loop& loop, const machine::MachineModel& machine,
                   const graph::DepGraph& graph, const graph::SccResult& sccs);

    /**
     * Decide candidate `ii` within `node_budget` examined candidates.
     *
     * The outcome carries the schedule when one exists and the search
     * completed; otherwise its status names the cause: kInfeasible
     * (proven — the full space was searched) or kBudgetExhausted
     * (undecided). Its counters hold this attempt's own delta.
     */
    IiAttemptOutcome trySchedule(int ii, std::int64_t node_budget);

  private:
    const ir::Loop& loop_;
    const machine::MachineModel& machine_;
    const graph::DepGraph& graph_;
    const graph::SccResult& sccs_;
    /** HeightR buffers reused across candidate IIs (branch order). */
    PriorityWorkspace priorityWorkspace_;
    /** Whole-graph MinDist, recomputed (not rebuilt) per candidate II. */
    std::optional<mii::MinDistMatrix> dist_;
};

} // namespace ims::sched

#endif // IMS_SCHED_EXACT_SCHEDULER_HPP
