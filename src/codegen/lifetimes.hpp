#ifndef IMS_CODEGEN_LIFETIMES_HPP
#define IMS_CODEGEN_LIFETIMES_HPP

#include <cstdint>
#include <vector>

#include "ir/loop.hpp"
#include "machine/machine_model.hpp"
#include "sched/attempt.hpp"
#include "support/telemetry.hpp"

namespace ims::codegen {

/** Lifetime of one virtual register's value under a modulo schedule. */
struct RegisterLifetime
{
    ir::RegId reg = ir::kNoReg;
    /** Defining operation, or -1 for pure live-ins (not reported). */
    ir::OpId def = -1;
    /** Issue time of the definition within the one-iteration schedule. */
    int defTime = 0;
    /**
     * Last cycle (exclusive) at which some reader, possibly in a later
     * iteration, still needs the value: max over readers R at distance d
     * of SchedTime(R) + d * II + 1. At least defTime + latency(def).
     */
    int endTime = 0;

    /** Lifetime in cycles. */
    int length() const { return endTime - defTime; }
};

/** Lifetime analysis over a schedule. */
struct LifetimeAnalysis
{
    std::vector<RegisterLifetime> lifetimes;
    /**
     * Modulo-variable-expansion unroll requirement:
     * kmin = max over registers of ceil(lifetime / II) (Lam's MVE; §1's
     * "if rotating registers are absent, the kernel is unrolled to enable
     * modulo variable expansion").
     */
    int kmin = 1;
    /**
     * Maximum number of simultaneously live register values in steady
     * state (the rotating-register requirement proxy).
     */
    int maxLive = 0;
};

/**
 * Compute value lifetimes, the MVE unroll factor and MaxLive for a
 * schedule. A register with no readers still lives for its definition
 * latency. The work does not depend on operand distances.
 *
 * @throws support::CodedError "codegen.too_large" when a lifetime end or
 *         MaxLive does not fit `int` (operand distances near INT_MAX).
 */
LifetimeAnalysis analyzeLifetimes(const ir::Loop& loop,
                                  const machine::MachineModel& machine,
                                  const sched::ScheduleResult& schedule,
                                  support::TelemetrySink* sink = nullptr);

/**
 * `value` as an int; throws support::CodedError "codegen.too_large",
 * naming `what`, when it does not fit. Lifetime quantities are computed
 * in std::int64_t and narrowed through this check.
 */
int checkedLifetimeInt(std::int64_t value, const char* what);

} // namespace ims::codegen

#endif // IMS_CODEGEN_LIFETIMES_HPP
