#ifndef IMS_SIM_MEMORY_HPP
#define IMS_SIM_MEMORY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/loop.hpp"
#include "sim/value.hpp"

namespace ims::sim {

/**
 * The margin every simulation input of `loop` uses:
 * max(8, max |offset| + maxDistance + 2). In 64 bits, since an offset
 * near the int limits overflows int.
 */
std::int64_t defaultMargin(const ir::Loop& loop);

/**
 * Values a simulation may hold across all arrays: 2^22, 32 MiB. The
 * largest one the tests, the kernels, the corpus, the fuzz campaigns,
 * the corpus programs and perfbench's loops run holds 2,940 (three
 * arrays of 980 cells), so this refuses only extents that a memory
 * offset or a trip count from untrusted text asks for.
 */
constexpr std::int64_t kMaxSimulatedValues = std::int64_t{1} << 22;

/**
 * Cells each array of `loop` spans when simulated for `trip` iterations
 * with `margin` on both sides: maxStride * trip + 2 * margin.
 *
 * @throws support::CodedError "sim.too_large" before anything is
 *         allocated when that times the number of arrays exceeds
 *         kMaxSimulatedValues.
 */
int simulatedCells(const ir::Loop& loop, int trip, std::int64_t margin);

/**
 * Array storage for loop simulation. Accesses are to logical indices
 * i + offset where i is the iteration number; negative indices (reads of
 * elements "before" the loop, e.g. a[i-1] at i = 0) land in a margin
 * region initialised along with the array.
 */
class Memory
{
  public:
    /**
     * @param loop       declares the array symbols.
     * @param trip_count number of iterations to be simulated.
     * @param margin     extra elements on both sides of [0, trip_count).
     * @throws support::CodedError "sim.too_large" (see simulatedCells).
     */
    Memory(const ir::Loop& loop, int trip_count, int margin);

    /**
     * Initialise array contents: `contents[k]` becomes logical index
     * `first + k`. Unset elements default to 0.
     */
    void init(ir::ArrayId array, int first,
              const std::vector<Value>& contents);

    Value read(ir::ArrayId array, int index) const;
    void write(ir::ArrayId array, int index, Value value);

    /** Logical elements [from, from + count). */
    std::vector<Value> snapshot(ir::ArrayId array, int from,
                                int count) const;

    int margin() const { return margin_; }

    /** Exact content equality with another Memory of identical shape. */
    bool operator==(const Memory& other) const;

    /**
     * Description of the first differing cell ("array 2 logical index -1:
     * 0.5 vs 1.5"), or "" when equal. Shape mismatches are reported as
     * such. NaN-tolerant like operator== (bit-identical NaNs are equal).
     */
    std::string firstDifference(const Memory& other) const;

  private:
    std::size_t cellIndex(ir::ArrayId array, int index) const;

    int tripCount_;
    int margin_;
    std::vector<std::vector<Value>> arrays_;
};

} // namespace ims::sim

#endif // IMS_SIM_MEMORY_HPP
