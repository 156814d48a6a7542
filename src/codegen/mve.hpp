#ifndef IMS_CODEGEN_MVE_HPP
#define IMS_CODEGEN_MVE_HPP

#include <vector>

#include "codegen/lifetimes.hpp"

namespace ims::codegen {

/**
 * Modulo variable expansion plan (§1, citing Lam): when the hardware lacks
 * rotating registers, values whose lifetime exceeds the II would be
 * overwritten by the next iteration's instance; the kernel is unrolled
 * `unroll` times and each expanded register gets `copies[reg]` names,
 * cycled modulo the unroll factor.
 */
struct MvePlan
{
    /** Kernel unroll factor: max over registers of ceil(lifetime/II). */
    int unroll = 1;
    /** Copies needed per register (0 for regs never defined in the loop). */
    std::vector<int> copies;
    /** True when unroll == 1 (rotating registers not required anyway). */
    bool trivial() const { return unroll <= 1; }
};

/**
 * Build the MVE plan from a lifetime analysis.
 *
 * @throws support::CodedError "codegen.too_large" when a copy count does
 *         not fit `int`.
 */
MvePlan planMve(const ir::Loop& loop, const LifetimeAnalysis& lifetimes,
                int ii);

} // namespace ims::codegen

#endif // IMS_CODEGEN_MVE_HPP
