#ifndef IMS_SCHED_TIME_BOUND_HPP
#define IMS_SCHED_TIME_BOUND_HPP

#include <cstdint>

#include "graph/dep_graph.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"

namespace ims::sched {

/**
 * A 64-bit bound on every schedule time, reservation cycle and
 * intermediate sum the schedulers compute in `int`, checked before they
 * run so that their per-step loops need no overflow checks.
 *
 * Let P be the sum over vertices of each one's largest positive out-edge
 * delay (no simple dependence path is longer), U the latest
 * reservation-use time of any alternative of the loop's opcodes and V
 * the number of vertices. Then:
 *  - the list schedule places each op at most (largest delay) + U + 1
 *    cycles past the latest cycle so far, so it stays below V * (P + U + 1);
 *  - a heuristic attempt at II raises the latest time by at most P + II
 *    per placement step (Estart, or etime through MinDist, plus the
 *    II-wide window; a forced placement moves one cycle), so after
 *    `steps` steps it stays below steps * (P + II);
 *  - the exact backend's times are longest paths in which each edge
 *    costs at most its delay + II, so they stay below P + V * II.
 * (steps + V) * (P + U + 2 * II) covers all three, with room for the
 * delay or use time a scheduler adds to a time.
 */
class TimeBound
{
  public:
    /** For schedules that take at most `steps` placement steps. */
    TimeBound(const ir::Loop& loop, const machine::MachineModel& machine,
              const graph::DepGraph& graph, std::int64_t steps);

    /**
     * @throws support::CodedError "sched.too_large" when a schedule at
     *         `ii` could reach a time beyond INT32_MAX.
     */
    void check(int ii) const;

  private:
    const ir::Loop& loop_;
    std::int64_t pathDelay_ = 0;
    std::int64_t maxUseTime_ = 0;
    std::int64_t vertices_;
    std::int64_t steps_;
};

} // namespace ims::sched

#endif // IMS_SCHED_TIME_BOUND_HPP
