#ifndef IMS_MII_REC_MII_HPP
#define IMS_MII_REC_MII_HPP

#include "graph/dep_graph.hpp"
#include "graph/scc.hpp"
#include "support/counters.hpp"

namespace ims::mii {

/**
 * Recurrence-constrained MII via the per-SCC MinDist search of §2.2 (the
 * approach used in the paper, after Huff): for each strongly connected
 * component in turn, find the smallest II for which the component's
 * MinDist matrix has no positive diagonal entry, seeding each search with
 * the MII resulting from the previous components ("each time
 * ComputeMinDist is invoked with a new SCC, the initial starting value of
 * the candidate MII is the resulting MII as computed with the previous
 * SCC").
 *
 * @param start_candidate initial candidate (the ResMII in a production
 *        compiler; pass 1 to obtain the true RecMII for statistics).
 * @returns the smallest II >= start_candidate feasible for every SCC.
 * @throws support::Error on a zero-distance dependence cycle (no II can
 *         ever be feasible).
 * @throws support::CodedError "mii.too_large" when no II up to
 *         INT32_MAX / 2 is feasible and a component's delays sum to more
 *         than that, so the RecMII may lie beyond the search's range.
 */
int computeRecMiiPerScc(const graph::DepGraph& graph,
                        const graph::SccResult& sccs, int start_candidate,
                        support::Counters* counters = nullptr);

/**
 * Same search over the entire dependence graph with a single MinDist per
 * candidate II (no SCC decomposition). Produces identical results at
 * higher cost; kept for the RecMII ablation bench.
 */
int computeRecMiiWholeGraph(const graph::DepGraph& graph,
                            int start_candidate,
                            support::Counters* counters = nullptr);

/**
 * The Cydra 5 compiler's approach (§2.2): enumerate all elementary
 * circuits c and take the worst-case ceil(Delay(c) / Distance(c)).
 * Exponential in the worst case; used as a cross-check in tests and in
 * the ablation bench. The result is clamped below at 1.
 */
int computeRecMiiFromCircuits(const graph::DepGraph& graph,
                              support::Counters* counters = nullptr);

} // namespace ims::mii

#endif // IMS_MII_REC_MII_HPP
