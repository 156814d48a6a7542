#ifndef IMS_MACHINE_COMPILED_RESERVATIONS_HPP
#define IMS_MACHINE_COMPILED_RESERVATIONS_HPP

#include <cstdint>
#include <vector>

#include "machine/reservation_table.hpp"

namespace ims::machine {

/**
 * A reservation table lowered for one candidate II.
 *
 * The modulo reservation table only ever asks one question of an
 * alternative's table: "which resources does it touch in which row mod
 * II?". That is a pure function of (table, II), so it is compiled once
 * per II attempt instead of being re-derived from the use list on every
 * conflict probe. The compiled form is the **modulo use list**: the uses
 * with relative times reduced mod II and duplicate (time mod II,
 * resource) pairs merged, sorted by (rotation, resource). For a use at
 * rotation u of resource R, the set of issue residues that collide is
 * exactly the MRT's per-resource row bitset rotated down by u — the
 * word-parallel slot scan — and a single-time conflict test at issue
 * time T reads bit (u + T) mod II of that bitset.
 *
 * Compilation also decides, once, whether the table collides with itself
 * under the modulo wrap-around (two uses of one resource in congruent
 * rows). Such an alternative can never be scheduled at this II and is
 * skipped before any slot probe; its use list (with the duplicate
 * merged) is still well-formed for conflict queries.
 *
 * The uses live in one flat word buffer, one packed word each — the
 * compile step runs once per used opcode in *every* II attempt, so small
 * loops feel its constant factor.
 */
class CompiledReservationTable
{
  public:
    /** One merged use: `rotation` = relative time mod II. */
    struct ModuloUse
    {
        int rotation = 0;
        ResourceId resource = 0;
    };

    CompiledReservationTable() = default;
    CompiledReservationTable(const ReservationTable& table, int ii,
                             int num_resources);

    int ii() const { return ii_; }

    /** True when the source table reserved no resources (pseudo-ops). */
    bool empty() const { return data_.empty(); }

    /** True when two uses of one resource fall in congruent rows. */
    bool selfConflicts() const { return selfConflicts_; }

    /** Merged (rotation, resource) uses, sorted, unique. */
    int numUses() const { return static_cast<int>(data_.size()); }

    ModuloUse
    use(int i) const
    {
        const std::uint64_t word = data_[i];
        return ModuloUse{static_cast<int>(word >> 32),
                         static_cast<ResourceId>(word & 0xffffffffu)};
    }

    /**
     * Same II, same self-conflict flag and same merged uses. The use list
     * is canonical (sorted, unique), so two equal tables reserve exactly
     * the same (row mod II, resource) cells.
     */
    bool operator==(const CompiledReservationTable&) const = default;

  private:
    int ii_ = 1;
    bool selfConflicts_ = false;
    std::vector<std::uint64_t> data_;
};

} // namespace ims::machine

#endif // IMS_MACHINE_COMPILED_RESERVATIONS_HPP
