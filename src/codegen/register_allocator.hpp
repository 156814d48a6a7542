#ifndef IMS_CODEGEN_REGISTER_ALLOCATOR_HPP
#define IMS_CODEGEN_REGISTER_ALLOCATOR_HPP

#include <string>
#include <vector>

#include "codegen/lifetimes.hpp"
#include "codegen/mve.hpp"
#include "ir/loop.hpp"
#include "support/telemetry.hpp"

namespace ims::codegen {

/** Allocation of one virtual register. */
struct RegisterAssignment
{
    ir::RegId reg = ir::kNoReg;
    /**
     * First physical register of this value's block. Rotating targets
     * reserve `copies` consecutive rotating registers; static targets
     * reserve exactly one static register.
     */
    int base = 0;
    /** Number of physical registers assigned. */
    int copies = 1;
    /** True when the block lives in the rotating register file. */
    bool rotating = false;
};

/** Result of kernel register allocation. */
struct RegisterAllocation
{
    /** One per loop register, indexed by register id. */
    std::vector<RegisterAssignment> assignments;
    /** Rotating registers consumed (the EVR-backing file, [35]). */
    int rotatingRegisters = 0;
    /** Static registers consumed (loop invariants / pure live-ins). */
    int staticRegisters = 0;

    /** Assignment for `reg` (must exist), in O(1). */
    const RegisterAssignment& of(ir::RegId reg) const;

    /**
     * Physical name of `reg`'s instance from `iterations_back` iterations
     * ago, e.g. "rr12[2]" or "sr3". Rotating blocks are indexed modulo
     * their copy count, matching the MVE renaming discipline.
     */
    std::string physicalName(ir::RegId reg, int iterations_back) const;
};

/**
 * Rotating-register-style allocation for a modulo-scheduled kernel:
 * every register defined in the loop receives ceil(lifetime/II)
 * consecutive rotating registers (so each live copy has a distinct
 * physical home); pure live-ins receive one static register each. This is
 * the bookkeeping core of the Rau et al. allocation scheme the paper's
 * step list references ("rotating register allocation is performed for
 * the kernel") without the spill machinery, which a pure scheduling study
 * never triggers.
 *
 * @throws support::CodedError "codegen.too_large" when the rotating
 *         register total does not fit `int`.
 */
RegisterAllocation allocateRegisters(const ir::Loop& loop,
                                     const LifetimeAnalysis& lifetimes,
                                     const MvePlan& mve,
                                     support::TelemetrySink* sink = nullptr);

} // namespace ims::codegen

#endif // IMS_CODEGEN_REGISTER_ALLOCATOR_HPP
