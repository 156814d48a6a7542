#include "sched/time_bound.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "support/error.hpp"

namespace ims::sched {

TimeBound::TimeBound(const ir::Loop& loop,
                     const machine::MachineModel& machine,
                     const graph::DepGraph& graph, std::int64_t steps)
    : loop_(loop), vertices_(graph.numVertices()), steps_(steps)
{
    for (graph::VertexId v = 0; v < graph.numVertices(); ++v) {
        int longest = 0;
        for (const graph::Dep& dep : graph.outDeps(v))
            longest = std::max(longest, dep.delay);
        pathDelay_ += longest;
    }
    for (const auto& op : loop.operations()) {
        for (const auto& alternative :
             machine.info(op.opcode).alternatives) {
            for (const auto& use : alternative.table.uses())
                maxUseTime_ = std::max<std::int64_t>(maxUseTime_, use.time);
        }
    }
}

void
TimeBound::check(int ii) const
{
    constexpr std::int64_t kLimit = std::numeric_limits<int>::max();
    const std::int64_t scale =
        pathDelay_ + maxUseTime_ + 2 * static_cast<std::int64_t>(ii);
    if (scale <= kLimit && steps_ <= kLimit / scale - vertices_)
        return;
    throw support::CodedError(
        "sched.too_large",
        "schedule times of loop '" + loop_.name() + "' at II " +
            std::to_string(ii) + " could exceed " + std::to_string(kLimit) +
            " (a dependence path may take up to " +
            std::to_string(pathDelay_) + " cycles)");
}

} // namespace ims::sched
