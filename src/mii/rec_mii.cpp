#include "mii/rec_mii.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>

#include "graph/circuits.hpp"
#include "mii/min_dist.hpp"
#include "support/error.hpp"

namespace ims::mii {

namespace {

/**
 * Ceiling on any useful candidate II for the given vertex subset: once II
 * is at least the sum of positive edge delays, every circuit with a
 * positive distance satisfies Delay(c) - II * Distance(c) <= 0. If the
 * subset is still infeasible there, it contains a zero-distance cycle.
 */
std::int64_t
candidateCap(const graph::DepGraph& graph,
             const std::vector<graph::VertexId>& vertices)
{
    std::int64_t cap = 1;
    std::vector<bool> member(graph.numVertices(), false);
    for (graph::VertexId v : vertices)
        member[v] = true;
    for (const auto& edge : graph.edges()) {
        if (member[edge.from] && member[edge.to] && edge.delay > 0)
            cap += edge.delay;
    }
    return cap;
}

/**
 * Feasibility oracle for one vertex subset: II is feasible iff the
 * subset has no circuit with Delay(c) - II * Distance(c) > 0, i.e. no
 * positive-weight cycle under edge weights delay - II * distance. That
 * is exactly the condition "the MinDist diagonal is non-positive" the
 * O(s^3) ComputeMinDist closure used to decide per probe; Bellman-Ford
 * positive-cycle detection answers it in O(s * e) without materialising
 * the matrix, and as a pure decision it cannot disagree with the
 * closure, so the RecMII search returns the same II.
 *
 * The probe charges the same counters as the closure it replaces —
 * min_dist_invocations per feasibility question, min_dist_inner_steps
 * per edge relaxation examined — so those fields keep meaning "RecMII
 * feasibility work", just with the cheaper inner loop.
 */
class FeasibilityProbe
{
  public:
    FeasibilityProbe(const graph::DepGraph& graph,
                     const std::vector<graph::VertexId>& vertices)
        : numVertices_(static_cast<int>(vertices.size())),
          potential_(vertices.size(), 0)
    {
        std::vector<std::int32_t> index(graph.numVertices(), -1);
        for (std::size_t i = 0; i < vertices.size(); ++i)
            index[vertices[i]] = static_cast<std::int32_t>(i);
        for (const auto& edge : graph.edges()) {
            if (index[edge.from] >= 0 && index[edge.to] >= 0) {
                edges_.push_back({index[edge.from], index[edge.to],
                                  edge.delay, edge.distance});
            }
        }
    }

    /** True when the subset has no positive-weight cycle at this II. */
    bool
    feasible(int ii, support::Counters* counters)
    {
        support::bump(counters, &support::Counters::minDistInvocations);
        // From an all-zero start, after k relaxation passes
        // potential_[v] is the maximum weight of any walk of at most k
        // edges ending at v. Without a positive cycle that maximum is
        // attained by a simple path (<= s-1 edges), so some pass among
        // the first s changes nothing and the relaxation has converged;
        // with one, every pass keeps improving. Hence: a quiescent pass
        // proves feasibility, s consecutive changing passes prove a
        // positive cycle.
        std::fill(potential_.begin(), potential_.end(), 0);
        std::uint64_t relaxations = 0;
        bool changed = true;
        for (int pass = 0; pass < numVertices_ && changed; ++pass) {
            changed = false;
            for (const Edge& edge : edges_) {
                ++relaxations;
                const std::int64_t weight =
                    edge.delay -
                    static_cast<std::int64_t>(ii) * edge.distance;
                const std::int64_t bound = potential_[edge.from] + weight;
                if (bound > potential_[edge.to]) {
                    potential_[edge.to] = bound;
                    changed = true;
                }
            }
        }
        support::bump(counters, &support::Counters::minDistInnerSteps,
                      relaxations);
        return !changed;
    }

  private:
    struct Edge
    {
        std::int32_t from;
        std::int32_t to;
        std::int32_t delay;
        std::int32_t distance;
    };

    int numVertices_;
    std::vector<Edge> edges_;
    std::vector<std::int64_t> potential_;
};

/**
 * Smallest II >= `start` for which the subset becomes feasible, using
 * the paper's protocol: advance by a doubling increment until feasible,
 * then binary-search between the last unsuccessful and first successful
 * candidates.
 */
int
searchFeasibleIi(const graph::DepGraph& graph,
                 const std::vector<graph::VertexId>& vertices, int start,
                 support::Counters* counters)
{
    FeasibilityProbe probe(graph, vertices);
    auto feasible = [&](int ii) { return probe.feasible(ii, counters); };

    // Candidates stay at most INT32_MAX / 2 so that `candidate + step`
    // cannot overflow.
    const std::int64_t useful_cap = candidateCap(graph, vertices);
    const int cap =
        static_cast<int>(std::min<std::int64_t>(useful_cap, INT32_MAX / 2));
    if (feasible(start))
        return start;

    int last_bad = start;
    int step = 1;
    int candidate = start;
    do {
        if (candidate >= cap && cap < useful_cap) {
            throw support::CodedError(
                "mii.too_large",
                "no initiation interval up to " + std::to_string(cap) +
                    " satisfies the dependence recurrences: the "
                    "recurrence-constrained MII is too large");
        }
        support::check(candidate < cap,
                       "dependence cycle with zero iteration distance: no "
                       "initiation interval is feasible");
        last_bad = candidate;
        candidate = std::min(candidate + step, cap);
        step *= 2;
    } while (!feasible(candidate));

    // Binary search in (last_bad, candidate].
    int lo = last_bad + 1;
    int hi = candidate;
    while (lo < hi) {
        const int mid = lo + (hi - lo) / 2;
        if (feasible(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

} // namespace

int
computeRecMiiPerScc(const graph::DepGraph& graph,
                    const graph::SccResult& sccs, int start_candidate,
                    support::Counters* counters)
{
    int candidate = std::max(1, start_candidate);
    for (const auto& component : sccs.components()) {
        // Pseudo vertices and singletons without a reflexive edge cannot
        // constrain the II; skip them without invoking the probe.
        if (component.size() == 1) {
            const graph::VertexId v = component.front();
            if (graph.isPseudo(v))
                continue;
            bool has_self_edge = false;
            for (const graph::Dep& dep : graph.outDeps(v))
                has_self_edge |= dep.other == v;
            if (!has_self_edge)
                continue;
        }
        candidate = searchFeasibleIi(graph, component, candidate, counters);
    }
    return candidate;
}

int
computeRecMiiWholeGraph(const graph::DepGraph& graph, int start_candidate,
                        support::Counters* counters)
{
    std::vector<graph::VertexId> real_vertices(graph.numOps());
    std::iota(real_vertices.begin(), real_vertices.end(), 0);
    return searchFeasibleIi(graph, real_vertices,
                            std::max(1, start_candidate), counters);
}

int
computeRecMiiFromCircuits(const graph::DepGraph& graph,
                          support::Counters* counters)
{
    (void)counters;
    int rec_mii = 1;
    for (const auto& circuit : graph::enumerateElementaryCircuits(graph)) {
        const int delay = graph::circuitDelay(graph, circuit);
        const int distance = graph::circuitDistance(graph, circuit);
        if (distance == 0) {
            support::check(delay <= 0,
                           "dependence cycle with zero iteration distance: "
                           "no initiation interval is feasible");
            continue;
        }
        // Smallest II with Delay(c) - II * Distance(c) <= 0.
        const int bound = static_cast<int>(
            (static_cast<std::int64_t>(delay) + distance - 1) / distance);
        rec_mii = std::max(rec_mii, bound);
    }
    return rec_mii;
}

} // namespace ims::mii
