#include "sched/mrt.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace ims::sched {

ModuloReservationTable::ModuloReservationTable(int ii, int num_resources)
    : ii_(ii),
      numResources_(num_resources),
      wordsPerColumn_((ii + 63) / 64),
      lastColumnWordMask_(ii % 64 == 0
                              ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (ii % 64)) - 1),
      cells_(static_cast<std::size_t>(ii) * num_resources, kFree),
      resourceRows_(static_cast<std::size_t>(num_resources) *
                        wordsPerColumn_,
                    0),
      scanScratch_(wordsPerColumn_, 0)
{
    assert(ii >= 1);
}

void
ModuloReservationTable::setCellBits(int row, machine::ResourceId resource)
{
    std::uint64_t& word =
        resourceRows_[static_cast<std::size_t>(resource) *
                          wordsPerColumn_ +
                      (row >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (row & 63);
    assert((word & bit) == 0 && "bitset disagrees with owner cells");
    word |= bit;
}

void
ModuloReservationTable::clearCellBits(int row, machine::ResourceId resource)
{
    std::uint64_t& word =
        resourceRows_[static_cast<std::size_t>(resource) *
                          wordsPerColumn_ +
                      (row >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (row & 63);
    assert((word & bit) != 0 && "bitset disagrees with owner cells");
    word &= ~bit;
}

bool
ModuloReservationTable::conflicts(
    const machine::CompiledReservationTable& table, int time) const
{
    assert(table.ii() == ii_);
    ++maskProbes_;
    const int base_row = rowOf(time);
    const int num_uses = table.numUses();
    for (int i = 0; i < num_uses; ++i) {
        const auto use = table.use(i);
        const int row = useRow(use, base_row);
        if ((resourceRows(use.resource)[row >> 6] >> (row & 63) & 1) != 0)
            return true;
    }
    return false;
}

void
ModuloReservationTable::orRotatedInto(const std::uint64_t* src,
                                      int rotation,
                                      std::uint64_t* dst) const
{
    const int W = wordsPerColumn_;
    if (rotation == 0) {
        for (int i = 0; i < W; ++i)
            dst[i] |= src[i];
        return;
    }
    // rotr over the ii-bit field: (src >> rotation) | (src << (ii - s)),
    // with the unused high bits of the last word masked back off.
    const int ws = rotation >> 6;
    const int bs = rotation & 63;
    const int left = ii_ - rotation;
    const int wl = left >> 6;
    const int bl = left & 63;
    for (int i = 0; i < W; ++i) {
        std::uint64_t value = 0;
        const int j = i + ws;
        if (j < W)
            value = src[j] >> bs;
        if (bs != 0 && j + 1 < W)
            value |= src[j + 1] << (64 - bs);
        const int k = i - wl;
        if (k >= 0)
            value |= src[k] << bl;
        if (bl != 0 && k - 1 >= 0)
            value |= src[k - 1] >> (64 - bl);
        if (i == W - 1)
            value &= lastColumnWordMask_;
        dst[i] |= value;
    }
}

int
ModuloReservationTable::firstFreeSlot(
    const machine::CompiledReservationTable& table, int min_time) const
{
    assert(table.ii() == ii_);
    assert(!table.selfConflicts() &&
           "self-conflicting alternatives are pre-filtered");
    ++slotScans_;
    if (table.empty())
        return min_time;

    // Conflict mask over issue residues: bit p is set iff issuing the
    // table at any time ≡ p (mod II) collides. A use of resource R at
    // rotation u collides at residue p iff row (p + u) mod II of R is
    // occupied — i.e. R's row bitset rotated down by u.
    const int W = wordsPerColumn_;
    std::uint64_t* conflict = scanScratch_.data();
    std::fill(conflict, conflict + W, 0);
    const int num_uses = table.numUses();
    for (int i = 0; i < num_uses; ++i) {
        const auto use = table.use(i);
        orRotatedInto(resourceRows(use.resource), use.rotation, conflict);
    }

    // First zero bit at or cyclically after residue p0 = min_time mod II.
    const int p0 = rowOf(min_time);
    const auto scan = [&](int from, int limit) -> int {
        for (int w = from >> 6; w <= (limit - 1) >> 6; ++w) {
            std::uint64_t free = ~conflict[w];
            if (w == from >> 6)
                free &= ~std::uint64_t{0} << (from & 63);
            if (w == (limit - 1) >> 6 && (limit & 63) != 0)
                free &= (std::uint64_t{1} << (limit & 63)) - 1;
            if (free != 0) {
                const int p = (w << 6) + std::countr_zero(free);
                if (p < limit)
                    return p;
            }
        }
        return -1;
    };
    int p = scan(p0, ii_);
    if (p < 0 && p0 > 0)
        p = scan(0, p0);
    if (p < 0)
        return -1;
    const int delta = p >= p0 ? p - p0 : p - p0 + ii_;
    return min_time + delta;
}

void
ModuloReservationTable::conflictingOps(
    const machine::CompiledReservationTable& table, int time,
    std::vector<int>& out) const
{
    assert(table.ii() == ii_);
    out.clear();
    const int base_row = rowOf(time);
    const int num_uses = table.numUses();
    for (int i = 0; i < num_uses; ++i) {
        const auto use = table.use(i);
        const int holder = owner(useRow(use, base_row), use.resource);
        if (holder != kFree)
            out.push_back(holder);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

void
ModuloReservationTable::reserve(
    int op, const machine::CompiledReservationTable& table, int time)
{
    assert(table.ii() == ii_);
    assert(!table.selfConflicts() && "a self-conflicting table never fits");
    const int base_row = rowOf(time);
    const int num_uses = table.numUses();
    for (int i = 0; i < num_uses; ++i) {
        const auto use = table.use(i);
        const int row = useRow(use, base_row);
        int& cell =
            cells_[static_cast<std::size_t>(row) * numResources_ +
                   use.resource];
        assert(cell == kFree && "double booking in MRT");
        cell = op;
        setCellBits(row, use.resource);
    }
}

void
ModuloReservationTable::release(
    [[maybe_unused]] int op, const machine::CompiledReservationTable& table,
    int time)
{
    assert(table.ii() == ii_);
    const int base_row = rowOf(time);
    const int num_uses = table.numUses();
    for (int i = 0; i < num_uses; ++i) {
        const auto use = table.use(i);
        const int row = useRow(use, base_row);
        int& cell =
            cells_[static_cast<std::size_t>(row) * numResources_ +
                   use.resource];
        assert(cell == op && "released a cell the op does not hold");
        cell = kFree;
        clearCellBits(row, use.resource);
    }
}

int
ModuloReservationTable::reservedCellCount() const
{
    return static_cast<int>(
        std::count_if(cells_.begin(), cells_.end(),
                      [](int owner) { return owner != kFree; }));
}

bool
ModuloReservationTable::masksConsistent() const
{
    for (int row = 0; row < ii_; ++row) {
        for (int resource = 0; resource < numResources_; ++resource) {
            const bool occupied = owner(row, resource) != kFree;
            const bool bit =
                (resourceRows(resource)[row >> 6] >> (row & 63) & 1) !=
                0;
            if (bit != occupied)
                return false;
        }
    }
    return true;
}

} // namespace ims::sched
