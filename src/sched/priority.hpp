#ifndef IMS_SCHED_PRIORITY_HPP
#define IMS_SCHED_PRIORITY_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/dep_graph.hpp"
#include "graph/scc.hpp"
#include "mii/min_dist.hpp"
#include "support/counters.hpp"

namespace ims::sched {

/**
 * Priority functions for HighestPriorityOperation. The paper selects the
 * height-based HeightR (§3.2) after investigating a number of schemes;
 * the alternatives here support the priority-function ablation bench.
 */
enum class PriorityScheme
{
    /** HeightR of Figure 5(a) — the paper's choice. */
    kHeightR,
    /** Least slack first, via the full-graph MinDist matrix. */
    kSlack,
    /** Program order (earlier operations first). */
    kSourceOrder,
    /** A random permutation drawn per candidate II from (seed, ii) —
     *  deterministic with no shared RNG state (worst-case baseline). */
    kRandom,
};

/** Name for a scheme ("heightr", "slack", ...). */
std::string prioritySchemeName(PriorityScheme scheme);

/** Inverse of prioritySchemeName; nullopt for unknown names. */
std::optional<PriorityScheme> prioritySchemeByName(std::string_view name);

/**
 * Reusable buffers for per-II priority computation. One workspace lives
 * for the duration of a ModuloSchedule invocation (all candidate IIs of
 * one loop): a failed II attempt re-fills `priorities` in place, the
 * slack scheme's full-graph MinDist matrix is recomputed rather than
 * rebuilt, and the random scheme's permutation buffer is recycled. The
 * workspace must not be shared between loops of different graphs.
 */
struct PriorityWorkspace
{
    std::vector<std::int64_t> priorities;
    /** Lazily built full-graph MinDist for PriorityScheme::kSlack. */
    std::optional<mii::MinDistMatrix> slackDist;
    /** Scratch permutation for PriorityScheme::kRandom. */
    std::vector<int> permutation;
};

/**
 * Compute per-vertex priorities (larger = scheduled earlier) for the
 * candidate II into `workspace.priorities`, without reallocating anything
 * the workspace already holds. Ties are broken by vertex id in the
 * scheduler.
 */
void computePrioritiesInto(const graph::DepGraph& graph,
                           const graph::SccResult& sccs, int ii,
                           PriorityScheme scheme, std::uint64_t seed,
                           support::Counters* counters,
                           PriorityWorkspace& workspace);

} // namespace ims::sched

#endif // IMS_SCHED_PRIORITY_HPP
