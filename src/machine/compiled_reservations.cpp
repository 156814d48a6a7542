#include "machine/compiled_reservations.hpp"

#include <algorithm>
#include <cassert>

namespace ims::machine {

CompiledReservationTable::CompiledReservationTable(
    const ReservationTable& table, int ii,
    [[maybe_unused]] int num_resources)
    : ii_(ii)
{
    assert(ii >= 1);
    const auto& uses = table.uses();
    if (uses.empty())
        return;

    // Reduce every use mod II into one packed word each: rotation in the
    // high half, resource in the low half, so raw word order is
    // (rotation, resource) order. ReservationTable uses are normalised
    // by (time, resource), so tables no longer than II arrive sorted —
    // only a wrapped table pays for a sort.
    data_.reserve(uses.size());
    bool sorted = true;
    for (const auto& use : uses) {
        assert(use.time >= 0 && use.resource >= 0 &&
               use.resource < num_resources);
        const std::uint64_t word =
            (static_cast<std::uint64_t>(use.time % ii) << 32) |
            static_cast<std::uint32_t>(use.resource);
        sorted = sorted && (data_.empty() || data_.back() <= word);
        data_.push_back(word);
    }
    if (!sorted)
        std::sort(data_.begin(), data_.end());

    // A duplicate (rotation, resource) pair is precisely a modulo
    // self-collision; record the fact and merge it so the use list stays
    // valid for conflict queries.
    const auto first_dup = std::unique(data_.begin(), data_.end());
    selfConflicts_ = first_dup != data_.end();
    data_.erase(first_dup, data_.end());
}

} // namespace ims::machine
