#ifndef IMS_SCHED_SLACK_SCHEDULER_HPP
#define IMS_SCHED_SLACK_SCHEDULER_HPP

#include "graph/dep_graph.hpp"
#include "graph/scc.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"
#include "sched/ii_search.hpp"
#include "support/counters.hpp"

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
 * Returns the same outcome type as the iterative backend so the two
 * algorithms can be compared head to head (bench_abl_huff_slack). Reached
 * through sched::schedule() with SchedulerStrategy::kSlack; the scheduler
 * itself lives in detail::runSlackSchedule (sched/schedule.hpp).
 */

} // namespace ims::sched

#endif // IMS_SCHED_SLACK_SCHEDULER_HPP
