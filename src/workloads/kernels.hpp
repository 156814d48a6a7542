#ifndef IMS_WORKLOADS_KERNELS_HPP
#define IMS_WORKLOADS_KERNELS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/loop.hpp"
#include "sim/sequential_interpreter.hpp"

namespace ims::workloads {

/** A loop together with its provenance tag. */
struct Workload
{
    ir::Loop loop;
    /** Suite tag: "lfk", "perfect" or "spec" (mirroring §4.1's corpus). */
    std::string suite;
    std::string description;
};

/**
 * The hand-written kernel library: 39 loops modelled on the Livermore
 * Fortran Kernels and the inner-loop idioms of the Perfect Club / Spec
 * suites — initialization loops, streaming vectorizable bodies,
 * reductions (raw and back-substituted), register and memory recurrences,
 * IF-converted (predicated) bodies, strided/unrolled accesses, and
 * block-reservation-table stress kernels (divide, square root).
 *
 * Every loop validates, is in intra-iteration topological order, and can
 * be simulated end-to-end.
 */
std::vector<Workload> kernelLibrary();

/** Kernel by name; throws support::Error if unknown. */
Workload kernelByName(const std::string& name);

/**
 * Build a deterministic simulation input for `loop`: arrays filled with
 * seeded pseudo-random contents over the full range with
 * sim::defaultMargin, live-in registers given small random values, and
 * recurrence seeds supplied up to the loop's maximum operand distance.
 *
 * @throws support::CodedError "sim.too_large" before allocating when
 *         that range exceeds int (see sim::simulatedCells).
 */
sim::SimSpec makeSimSpec(const ir::Loop& loop, int trip_count,
                         std::uint64_t seed);

} // namespace ims::workloads

#endif // IMS_WORKLOADS_KERNELS_HPP
