#ifndef IMS_SCHED_FEEDBACK_PROBE_HPP
#define IMS_SCHED_FEEDBACK_PROBE_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/dep_graph.hpp"
#include "graph/scc.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"
#include "sched/attempt_feedback.hpp"

namespace ims::sched {

/**
 * At most this many operations in the bottleneck subgraph handed to the
 * exact probe. Unplaceable operations are picked first, then
 * displacement-storm vertices; a small cap keeps the probe cheap.
 */
inline constexpr int kFeedbackSubgraphCap = 12;

/** Branch-and-bound node budget per probe call; an exhausted probe is
 *  inconclusive (the candidate is attempted normally). */
inline constexpr std::int64_t kFeedbackProbeBudget = 200'000;

/**
 * The feedback II-search strategy's infeasibility oracle (see
 * docs/ALGORITHM.md, "Feedback-guided search").
 *
 * The probe accumulates a *bottleneck subgraph* from the feedback
 * reports of failed attempts — unplaceable operations first, then
 * displacement-storm vertices, each closed under its dependence SCC when
 * the whole component fits under the cap (a recurrence is only as hard
 * as its full cycle) — and decides candidate IIs by running the exact
 * branch-and-bound backend on the *induced subproblem*: the selected
 * operations with every dependence edge between them and their original
 * reservation alternatives.
 *
 * Soundness (what licenses skipping a candidate without attempting it):
 * any modulo schedule of the full loop restricts to a legal modulo
 * schedule of the induced subproblem at the same II — every subproblem
 * dependence is an original dependence with unchanged delay/distance,
 * and removing operations only frees modulo-reservation-table slots. So
 * "subproblem infeasible at II" proves "loop infeasible at II", which is
 * exactly the certificate the feedback strategy needs: a skipped II is
 * one the linear walk would have attempted and failed, leaving the
 * winner (and the winning schedule) bit-identical to linear.
 *
 * A probe run that exhausts its node budget is *inconclusive* — the
 * strategy attempts the candidate normally, degrading gracefully toward
 * the plain linear walk. The cap keeps the exact subproblem small enough
 * that this is rare in practice (see bench_ii_search's provable-gap
 * family).
 *
 * sched::schedule() builds one probe per feedback walk, which calls it
 * sequentially, so the mutable accumulation needs no locking (see
 * IiInfeasibilityProbe).
 */
class FeedbackProbe
{
  public:
    FeedbackProbe(const ir::Loop& loop, const machine::MachineModel& machine,
                  const graph::DepGraph& graph, const graph::SccResult& sccs,
                  int subgraph_cap = kFeedbackSubgraphCap);
    ~FeedbackProbe();

    FeedbackProbe(const FeedbackProbe&) = delete;
    FeedbackProbe& operator=(const FeedbackProbe&) = delete;

    /**
     * IiInfeasibilityProbe entry point: fold `feedback` (the most recent
     * failed attempt's report) into the bottleneck subgraph, then return
     * true iff candidate `ii` is proven infeasible for the subproblem —
     * and hence, by the restriction argument above, for the loop.
     */
    bool operator()(int ii, const AttemptFeedback& feedback);

    /** Current bottleneck members (loop operation ids, ascending). */
    const std::vector<graph::VertexId>&
    members() const
    {
        return members_;
    }

    /** Exact subproblem runs performed / skips they proved. */
    int probesRun() const { return probesRun_; }
    int probesProven() const { return probesProven_; }

  private:
    struct Subproblem;

    /** Fold a report into the member set; true when the set grew. */
    bool merge(const AttemptFeedback& feedback);

    /** Materialise the induced subproblem for the current member set. */
    std::unique_ptr<Subproblem> buildSubproblem() const;

    const ir::Loop& loop_;
    const machine::MachineModel& machine_;
    const graph::DepGraph& graph_;
    const graph::SccResult& sccs_;
    int cap_;
    std::vector<std::uint8_t> inSet_;
    std::vector<graph::VertexId> members_;
    std::unique_ptr<Subproblem> sub_;
    int probesRun_ = 0;
    int probesProven_ = 0;
};

/**
 * Operations of `loop` with at least one alternative, all of whose
 * alternatives modulo-self-collide at `ii` (two uses of one resource a
 * multiple of II apart): such an operation cannot be placed at any slot,
 * so the loop is infeasible at `ii` and every attempt fails instantly
 * with AttemptStatus::kInfeasible. Used by the exact backend to populate
 * AttemptFeedback::unplaceable (the heuristic backends detect the same
 * set through their compiled reservation tables).
 */
std::vector<graph::VertexId>
collectUnplaceableOps(const ir::Loop& loop,
                      const machine::MachineModel& machine, int ii);

} // namespace ims::sched

#endif // IMS_SCHED_FEEDBACK_PROBE_HPP
