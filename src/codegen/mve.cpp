#include "codegen/mve.hpp"

#include <algorithm>

namespace ims::codegen {

MvePlan
planMve(const ir::Loop& loop, const LifetimeAnalysis& lifetimes, int ii)
{
    MvePlan plan;
    plan.copies.assign(loop.numRegisters(), 0);
    for (const auto& lifetime : lifetimes.lifetimes) {
        const std::int64_t copies =
            (static_cast<std::int64_t>(lifetime.length()) + ii - 1) / ii;
        const int k =
            std::max(1, checkedLifetimeInt(copies, "register copy count"));
        plan.copies[lifetime.reg] = k;
        plan.unroll = std::max(plan.unroll, k);
    }
    return plan;
}

} // namespace ims::codegen
