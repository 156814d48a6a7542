#include "codegen/register_allocator.hpp"

#include <cassert>

namespace ims::codegen {

const RegisterAssignment&
RegisterAllocation::of(ir::RegId reg) const
{
    // allocateRegisters emits one assignment per register, in id order.
    assert(reg >= 0 && reg < static_cast<ir::RegId>(assignments.size()));
    const RegisterAssignment& assignment = assignments[reg];
    assert(assignment.reg == reg && "assignments not indexed by register");
    return assignment;
}

std::string
RegisterAllocation::physicalName(ir::RegId reg, int iterations_back) const
{
    const RegisterAssignment& assignment = of(reg);
    if (!assignment.rotating)
        return "sr" + std::to_string(assignment.base);
    const int index = iterations_back % assignment.copies;
    return "rr" + std::to_string(assignment.base) + "[" +
           std::to_string(index) + "]";
}

RegisterAllocation
allocateRegisters(const ir::Loop& loop, const LifetimeAnalysis& lifetimes,
                  const MvePlan& mve, support::TelemetrySink* sink)
{
    support::PhaseTimer timer(sink, support::Phase::kRegAlloc);
    RegisterAllocation allocation;
    std::int64_t next_rotating = 0;
    int next_static = 0;

    allocation.assignments.reserve(loop.numRegisters());
    for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
        RegisterAssignment assignment;
        assignment.reg = reg;
        if (loop.definingOp(reg) < 0) {
            // Pure live-in: one static register.
            assignment.base = next_static++;
            assignment.copies = 1;
            assignment.rotating = false;
        } else {
            const int copies =
                mve.copies[reg] > 0 ? mve.copies[reg] : 1;
            assignment.base = static_cast<int>(next_rotating);
            assignment.copies = copies;
            assignment.rotating = true;
            next_rotating += copies;
        }
        allocation.assignments.push_back(assignment);
    }
    (void)lifetimes;
    // Bases past INT_MAX were truncated above; this throws for them.
    allocation.rotatingRegisters =
        checkedLifetimeInt(next_rotating, "rotating register total");
    allocation.staticRegisters = next_static;
    return allocation;
}

} // namespace ims::codegen
