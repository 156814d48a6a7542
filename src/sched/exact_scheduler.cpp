#include "sched/exact_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <vector>

#include "sched/partial_schedule.hpp"
#include "sched/schedule.hpp"
#include "support/error.hpp"

namespace ims::sched {

namespace {

/** One dependence edge lowered to a k-space difference constraint. */
struct KEdge
{
    graph::VertexId from;
    graph::VertexId to;
    int delay;
    int distance;
};

/** ceil(a / b) for b > 0 and any sign of a. */
std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return a >= 0 ? (a + b - 1) / b : -((-a) / b);
}

/**
 * The branch-and-bound over (residue, alternative) assignments for one
 * candidate II. Scratch state lives for one trySchedule call.
 */
class Search
{
  public:
    Search(const graph::DepGraph& graph, const mii::MinDistMatrix& dist,
           PartialSchedule& schedule,
           const std::vector<graph::VertexId>& order,
           const std::vector<std::vector<int>>& alternatives,
           const std::vector<KEdge>& k_edges, int ii, std::int64_t budget)
        : graph_(graph), dist_(dist), schedule_(schedule), order_(order),
          alternatives_(alternatives), kEdges_(k_edges), ii_(ii),
          budget_(budget),
          residue_(static_cast<std::size_t>(graph.numVertices()), 0),
          k_(static_cast<std::size_t>(graph.numVertices()), 0)
    {
        // START is every operation's predecessor and is pinned at time 0,
        // hence residue 0. It reserves no resources, so it participates
        // only in the residue-window and k-system checks.
        placedList_.reserve(order.size() + 1);
        placedList_.push_back(graph.start());
    }

    bool run() { return assign(0); }

    bool budgetExhausted() const { return budgetExhausted_; }
    std::int64_t nodes() const { return nodes_; }
    std::int64_t backtracks() const { return backtracks_; }

    /** Schedule time of `v` under the solved (k, residue) assignment. */
    std::int64_t
    timeOf(graph::VertexId v) const
    {
        return k_[static_cast<std::size_t>(v)] * ii_ +
               residue_[static_cast<std::size_t>(v)];
    }

  private:
    /** Debit one node from the budget; false (and sets the exhausted
     *  flag) once it runs dry. */
    bool
    charge()
    {
        if (++nodes_ > budget_) {
            budgetExhausted_ = true;
            return false;
        }
        return true;
    }

    bool
    assign(std::size_t idx)
    {
        if (idx == order_.size())
            return solveLeaf();
        const graph::VertexId v = order_[idx];
        const auto& compiled = schedule_.compiledAlternativesOf(v);
        // Rotating every time by a constant preserves dependence and
        // resource legality, so any feasible assignment has a rotation
        // placing the first branched operation at residue 0: pinning it
        // there loses no schedules and divides the search space by II.
        const int residue_limit = idx == 0 ? 1 : ii_;
        for (int r = 0; r < residue_limit; ++r) {
            // Every O(V)-bounded unit of work charges the budget — residue
            // candidates here, alternative probes below, Bellman-Ford
            // passes in solveLeaf — so the budget bounds wall time on any
            // machine shape, not just the candidate count.
            if (!charge())
                return false;
            if (!residueCompatible(v, r))
                continue;
            for (const int alternative : alternatives_[v]) {
                if (!charge())
                    return false;
                if (schedule_.mrt().conflicts(compiled[alternative], r))
                    continue;
                schedule_.place(v, r, alternative);
                residue_[static_cast<std::size_t>(v)] = r;
                placedList_.push_back(v);
                if (assign(idx + 1))
                    return true;
                schedule_.remove(v);
                placedList_.pop_back();
                if (budgetExhausted_)
                    return false;
                ++backtracks_;
            }
        }
        return false;
    }

    /**
     * Pairwise MinDist residue pruning: for every already placed u, the
     * signed distance d = t_v - t_u must lie in [MinDist[u][v],
     * -MinDist[v][u]] and be congruent to r - r_u (mod II). When the
     * window is finite on both sides and narrower than II, at most one
     * residue class fits — reject the rest without descending.
     */
    bool
    residueCompatible(graph::VertexId v, int r) const
    {
        for (const graph::VertexId u : placedList_) {
            const std::int64_t lo = dist_.atVertex(u, v);
            const std::int64_t neg_hi = dist_.atVertex(v, u);
            if (lo == mii::MinDistMatrix::kMinusInf ||
                neg_hi == mii::MinDistMatrix::kMinusInf) {
                // A one-sided (or absent) window admits every residue:
                // some congruent d beyond the finite bound always exists.
                continue;
            }
            const std::int64_t span = -neg_hi - lo;
            if (span < 0)
                return false; // positive cycle through (u, v)
            if (span >= ii_ - 1)
                continue; // window covers every residue class
            const std::int64_t offset =
                r - residue_[static_cast<std::size_t>(u)] - lo;
            const std::int64_t m = offset % ii_;
            if ((m < 0 ? m + ii_ : m) > span)
                return false;
        }
        return true;
    }

    /**
     * All residues fixed: solve the k-space difference constraints by
     * longest path from START (Bellman-Ford over the lowered edges).
     * Feasible iff there is no positive cycle; the minimal solution also
     * yields the earliest schedule times, hence the shortest schedule.
     */
    bool
    solveLeaf()
    {
        constexpr std::int64_t kUnreached = mii::MinDistMatrix::kMinusInf;
        std::fill(k_.begin(), k_.end(), kUnreached);
        k_[static_cast<std::size_t>(graph_.start())] = 0;
        const int max_passes = graph_.numVertices() + 1;
        for (int pass = 0; pass < max_passes; ++pass) {
            if (!charge())
                return false;
            bool changed = false;
            for (const KEdge& e : kEdges_) {
                const std::int64_t from_k =
                    k_[static_cast<std::size_t>(e.from)];
                if (from_k == kUnreached)
                    continue;
                const std::int64_t w = ceilDiv(
                    e.delay -
                        static_cast<std::int64_t>(ii_) * e.distance -
                        (residue_[static_cast<std::size_t>(e.to)] -
                         residue_[static_cast<std::size_t>(e.from)]),
                    ii_);
                auto& to_k = k_[static_cast<std::size_t>(e.to)];
                if (from_k + w > to_k) {
                    to_k = from_k + w;
                    changed = true;
                }
            }
            if (!changed)
                return true;
        }
        // Still relaxing after |V| passes: a positive cycle — this
        // residue assignment admits no k solution.
        return false;
    }

    const graph::DepGraph& graph_;
    const mii::MinDistMatrix& dist_;
    PartialSchedule& schedule_;
    const std::vector<graph::VertexId>& order_;
    const std::vector<std::vector<int>>& alternatives_;
    const std::vector<KEdge>& kEdges_;
    int ii_;
    std::int64_t budget_;

    std::vector<int> residue_;
    std::vector<std::int64_t> k_;
    std::vector<graph::VertexId> placedList_;
    std::int64_t nodes_ = 0;
    std::int64_t backtracks_ = 0;
    bool budgetExhausted_ = false;
};

} // namespace

ExactScheduler::ExactScheduler(const ir::Loop& loop,
                               const machine::MachineModel& machine,
                               const graph::DepGraph& graph,
                               const graph::SccResult& sccs)
    : loop_(loop), machine_(machine), graph_(graph), sccs_(sccs)
{
}

IiAttemptOutcome
ExactScheduler::trySchedule(int ii, std::int64_t node_budget)
{
    support::check(ii >= 1, "candidate II must be >= 1");
    support::check(node_budget > 0, "exact node budget must be positive");
    IiAttemptOutcome out;
    // Every early return below is a proof, so infeasible until decided.
    out.status = AttemptStatus::kInfeasible;

    if (!dist_.has_value())
        dist_.emplace(graph_, ii, &out.counters);
    else
        dist_->recompute(ii, &out.counters);
    if (!dist_->feasible())
        return out;

    PartialSchedule schedule(graph_, loop_, machine_, ii);
    if (!schedule.allVerticesPlaceable())
        return out;

    // Branch order: HeightR descending (critical operations first), ties
    // by vertex id — the same deterministic order at every thread count.
    computePrioritiesInto(graph_, sccs_, ii, PriorityScheme::kHeightR,
                          /*seed=*/1, &out.counters, priorityWorkspace_);
    const auto& priorities = priorityWorkspace_.priorities;
    std::vector<graph::VertexId> order(
        static_cast<std::size_t>(graph_.numOps()));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](graph::VertexId a, graph::VertexId b) {
                         const auto pa =
                             priorities[static_cast<std::size_t>(a)];
                         const auto pb =
                             priorities[static_cast<std::size_t>(b)];
                         return pa != pb ? pa > pb : a < b;
                     });

    // Dominance/symmetry pruning: drop modulo self-colliding alternatives
    // (unschedulable at this II) and collapse alternatives whose compiled
    // tables are identical to an earlier one.
    std::vector<std::vector<int>> alternatives(
        static_cast<std::size_t>(graph_.numVertices()));
    for (const graph::VertexId v : order) {
        const auto& compiled = schedule.compiledAlternativesOf(v);
        auto& distinct = alternatives[static_cast<std::size_t>(v)];
        for (int i = 0; i < static_cast<int>(compiled.size()); ++i) {
            if (compiled[static_cast<std::size_t>(i)].selfConflicts())
                continue;
            bool duplicate = false;
            for (const int j : distinct) {
                if (compiled[static_cast<std::size_t>(i)] ==
                    compiled[static_cast<std::size_t>(j)]) {
                    duplicate = true;
                    break;
                }
            }
            if (!duplicate)
                distinct.push_back(i);
        }
        if (distinct.empty()) {
            // allVerticesPlaceable already rules this out; keep the proof
            // airtight if a machine model ever offers no alternatives.
            return out;
        }
    }

    // Lower the dependence edges once: STOP only bounds the schedule
    // length (it has no outgoing edges), so it is excluded from the
    // branch-and-bound and reattached after a solution is found.
    // Self-edges reduce to delay - II*distance <= 0, which the MinDist
    // diagonal check already certified.
    std::vector<KEdge> k_edges;
    k_edges.reserve(static_cast<std::size_t>(graph_.numEdges()));
    for (const graph::DepEdge& e : graph_.edges()) {
        if (e.from == e.to || e.from == graph_.stop() ||
            e.to == graph_.stop()) {
            continue;
        }
        k_edges.push_back({e.from, e.to, e.delay, e.distance});
    }

    Search search(graph_, *dist_, schedule, order, alternatives, k_edges,
                  ii, node_budget);
    const bool found = search.run();

    out.counters.scheduleSteps += static_cast<std::uint64_t>(search.nodes());
    out.counters.unscheduleSteps +=
        static_cast<std::uint64_t>(search.backtracks());
    out.counters.mrtMaskProbes += schedule.mrt().maskProbes();
    out.counters.mrtSlotScans += schedule.mrt().slotScans();

    if (!found) {
        // Unless the budget cut it short, the space was exhausted: the
        // kInfeasible verdict is a proof.
        if (search.budgetExhausted())
            out.status = AttemptStatus::kBudgetExhausted;
        return out;
    }

    ScheduleResult result;
    result.ii = ii;
    result.times.resize(static_cast<std::size_t>(graph_.numOps()));
    result.alternatives.resize(static_cast<std::size_t>(graph_.numOps()));
    for (graph::VertexId v = 0; v < graph_.numOps(); ++v) {
        result.times[static_cast<std::size_t>(v)] =
            static_cast<int>(search.timeOf(v));
        result.alternatives[static_cast<std::size_t>(v)] =
            schedule.alternativeOf(v);
    }
    // STOP is the successor of every operation; its earliest legal time
    // is the schedule length SL.
    std::int64_t stop_time = 0;
    for (const graph::EdgeId eid : graph_.inEdges(graph_.stop())) {
        const graph::DepEdge& e = graph_.edge(eid);
        const std::int64_t from_time =
            e.from == graph_.start() ? 0 : search.timeOf(e.from);
        stop_time = std::max(stop_time,
                             from_time + e.delay -
                                 static_cast<std::int64_t>(ii) * e.distance);
    }
    result.scheduleLength = static_cast<int>(stop_time);
    result.stepsUsed = search.nodes();
    result.unschedules = search.backtracks();
    out.status = AttemptStatus::kScheduled;
    out.schedule = std::move(result);
    return out;
}

namespace detail {

ModuloScheduleOutcome
exactBackend(const ir::Loop& loop, const machine::MachineModel& machine,
             const graph::DepGraph& graph, const graph::SccResult& sccs,
             const ScheduleOptions& options, const Walk& walk)
{
    support::check(options.exactNodeBudget > 0,
                   "exactNodeBudget must be positive");
    const std::int64_t budget = options.exactNodeBudget;

    // One scheduler for the whole walk: trySchedule reuses the MinDist
    // matrix and HeightR buffers across candidate IIs.
    ExactScheduler scheduler(loop, machine, graph, sccs);
    const IiAttemptFn attempt = [&](int ii) {
        IiAttemptOutcome out = scheduler.trySchedule(ii, budget);
        if (out.status == AttemptStatus::kBudgetExhausted) {
            // An undecided candidate breaks the optimality chain: the
            // first feasible II is provably optimal only while every II
            // below it is *proven* infeasible.
            throw support::CodedError(
                "exact.budget_exhausted",
                "exact scheduler exhausted its node budget (" +
                    std::to_string(budget) + ") at II " +
                    std::to_string(ii) + " for loop '" + loop.name() +
                    "' — optimality cannot be proven; raise "
                    "exactNodeBudget or use the iterative backend");
        }
        return out;
    };

    return walk(budget, attempt, [&] {
        return "exact scheduler proved no schedule exists for loop '" +
               loop.name() + "' within " +
               std::to_string(options.search.maxIiIncrease) +
               " IIs above the MII";
    });
}

} // namespace detail

} // namespace ims::sched
