#ifndef IMS_SCHED_MRT_HPP
#define IMS_SCHED_MRT_HPP

#include <cstdint>
#include <vector>

#include "machine/compiled_reservations.hpp"

namespace ims::sched {

/**
 * The modulo reservation table (MRT) of §3.1: a schedule reservation
 * table of exactly II rows. Scheduling an operation at time T that uses
 * resource R at relative time t records the reservation at row
 * (T + t) mod II, so "a conflict at time T implies conflicts at all
 * times T + k*II".
 *
 * Every query takes an alternative's table compiled for this II
 * (machine::CompiledReservationTable, the modulo use list). Each cell
 * remembers which operation owns it, so the scheduler can both test for
 * conflicts and determine the set of operations to displace (§3.4). The
 * owner grid stays authoritative for displacement; alongside it the
 * table keeps one redundant bitset view, a per-resource bitset over rows,
 * that makes conflict queries word-parallel (see docs/ALGORITHM.md,
 * "Compiled reservation tables"). Its rotations drive `firstFreeSlot`:
 * one pass over an alternative's compiled uses yields the conflict set
 * of *all* II candidate issue times at once, 64 candidates per machine
 * word. A single-time conflict test reads one bit per compiled use.
 *
 * In debug builds every reserve/release asserts that the bitsets agree
 * with the owner cells it touched; `masksConsistent()` checks the whole
 * grid (the randomized property test calls it after every mutation).
 */
class ModuloReservationTable
{
  public:
    /** Sentinel owner for a free cell. */
    static constexpr int kFree = -1;

    ModuloReservationTable(int ii, int num_resources);

    int ii() const { return ii_; }

    /**
     * Bitset conflict test: true if placing `table` at issue time `time`
     * collides with any existing reservation. Reads, for each compiled
     * use, one bit of the used resource's row bitset.
     */
    bool conflicts(const machine::CompiledReservationTable& table,
                   int time) const;

    /**
     * Word-parallel slot scan (the Figure 4 FindTimeSlot window): the
     * earliest conflict-free issue time for `table` in
     * [min_time, min_time + II - 1], or -1 when every candidate
     * conflicts. `table` must not self-conflict. One pass over the
     * compiled uses rotates each used resource's row bitset into a
     * conflict mask over all II issue residues, then scans that mask for
     * the first free slot.
     */
    int firstFreeSlot(const machine::CompiledReservationTable& table,
                      int min_time) const;

    /**
     * Fills `out` (cleared first, then sorted ascending and
     * deduplicated) with the owners of all cells that placing `table` at
     * `time` would collide with, reusing the caller's buffer capacity.
     */
    void conflictingOps(const machine::CompiledReservationTable& table,
                        int time, std::vector<int>& out) const;

    /**
     * Record that `op` issued at `time` occupies `table`'s cells. All
     * cells must currently be free (checked).
     */
    void reserve(int op, const machine::CompiledReservationTable& table,
                 int time);

    /**
     * Free the cells `op` reserved with `table` at `time` (the arguments
     * of its reserve call).
     */
    void release(int op, const machine::CompiledReservationTable& table,
                 int time);

    /** Owner of (row, resource), or kFree. */
    int
    owner(int row, machine::ResourceId resource) const
    {
        return cells_[static_cast<std::size_t>(row) * numResources_ +
                      resource];
    }

    /** Count of currently reserved cells (for tests). */
    int reservedCellCount() const;

    /**
     * True if the per-resource row bitsets agree with the owner-cell
     * grid on every (row, resource). The grid is authoritative; this
     * audits the redundant bitsets.
     */
    bool masksConsistent() const;

    /** Compiled conflict tests performed (telemetry: mrt_mask_probes). */
    std::uint64_t maskProbes() const { return maskProbes_; }

    /** Word-parallel slot scans performed (telemetry: mrt_slot_scans). */
    std::uint64_t slotScans() const { return slotScans_; }

  private:
    int
    rowOf(int time) const
    {
        // Schedule times are never negative (Estart >= 0), but keep the
        // modulo well-defined anyway.
        const int m = time % ii_;
        return m < 0 ? m + ii_ : m;
    }

    /** Row of `use` when its table starts in row `base_row`. */
    int
    useRow(machine::CompiledReservationTable::ModuloUse use,
           int base_row) const
    {
        const int row = use.rotation + base_row;
        return row >= ii_ ? row - ii_ : row;
    }

    const std::uint64_t*
    resourceRows(machine::ResourceId resource) const
    {
        return resourceRows_.data() +
               static_cast<std::size_t>(resource) * wordsPerColumn_;
    }

    void setCellBits(int row, machine::ResourceId resource);
    void clearCellBits(int row, machine::ResourceId resource);

    /**
     * OR `src` (an II-bit row bitset) rotated down by `rotation` into
     * `dst`: bit p of the rotated value is bit (p + rotation) mod II of
     * `src`. This is the modulo wrap-around identity that lets one
     * rotation test all II issue residues of one resource use at once.
     */
    void orRotatedInto(const std::uint64_t* src, int rotation,
                       std::uint64_t* dst) const;

    int ii_;
    int numResources_;
    /** Words per resource row bitset: ceil(ii / 64). */
    int wordsPerColumn_;
    /** Valid-bit mask for the last word of a row bitset. */
    std::uint64_t lastColumnWordMask_;
    std::vector<int> cells_;
    /** Occupancy: per resource, wordsPerColumn_ row words. */
    std::vector<std::uint64_t> resourceRows_;
    /** Scratch conflict mask for firstFreeSlot (no per-call alloc). */
    mutable std::vector<std::uint64_t> scanScratch_;
    mutable std::uint64_t maskProbes_ = 0;
    mutable std::uint64_t slotScans_ = 0;
};

} // namespace ims::sched

#endif // IMS_SCHED_MRT_HPP
