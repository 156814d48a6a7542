#include "sched/mrt.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace ims::sched {

ModuloReservationTable::ModuloReservationTable(int ii, int num_resources,
                                               int num_ops)
    : ii_(ii),
      numResources_(num_resources),
      wordsPerColumn_((ii + 63) / 64),
      lastColumnWordMask_(ii % 64 == 0
                              ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << (ii % 64)) - 1),
      cells_(static_cast<std::size_t>(ii) * num_resources, kFree),
      numOps_(num_ops),
      heldStride_(4),
      heldCells_(static_cast<std::size_t>(num_ops) * 4, 0),
      heldCount_(num_ops, 0),
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
ModuloReservationTable::conflicts(const machine::ReservationTable& table,
                                  int time) const
{
    for (const auto& use : table.uses()) {
        const int row = rowOf(time + use.time);
        if (owner(row, use.resource) != kFree)
            return true;
    }
    return false;
}

bool
ModuloReservationTable::conflicts(
    const machine::CompiledReservationTable& table, int time) const
{
    assert(table.ii() == ii_);
    ++maskProbes_;
    const int tm = rowOf(time);
    const int num_uses = table.numUses();
    for (int i = 0; i < num_uses; ++i) {
        const auto use = table.use(i);
        int row = use.rotation + tm;
        if (row >= ii_)
            row -= ii_;
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

std::vector<int>
ModuloReservationTable::conflictingOps(const machine::ReservationTable& table,
                                       int time) const
{
    std::vector<int> ops;
    conflictingOps(table, time, ops);
    return ops;
}

void
ModuloReservationTable::conflictingOps(const machine::ReservationTable& table,
                                       int time, std::vector<int>& out) const
{
    out.clear();
    for (const auto& use : table.uses()) {
        const int row = rowOf(time + use.time);
        const int holder = owner(row, use.resource);
        if (holder != kFree)
            out.push_back(holder);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

void
ModuloReservationTable::growHeldStride(int needed)
{
    const int new_stride = std::max(heldStride_ * 2, needed);
    std::vector<std::int32_t> grown(
        static_cast<std::size_t>(numOps_) * new_stride, 0);
    for (int op = 0; op < numOps_; ++op) {
        std::copy_n(heldCells_.data() +
                        static_cast<std::size_t>(op) * heldStride_,
                    heldCount_[op],
                    grown.data() +
                        static_cast<std::size_t>(op) * new_stride);
    }
    heldCells_.swap(grown);
    heldStride_ = new_stride;
}

void
ModuloReservationTable::reserve(int op,
                                const machine::ReservationTable& table,
                                int time)
{
    assert(op >= 0 && op < numOps_);
    assert(heldCount_[op] == 0 && "operation already holds reservations");
    const int num_uses = static_cast<int>(table.uses().size());
    if (num_uses > heldStride_)
        growHeldStride(num_uses);
    std::int32_t* held =
        heldCells_.data() + static_cast<std::size_t>(op) * heldStride_;
    int count = 0;
    for (const auto& use : table.uses()) {
        const int row = rowOf(time + use.time);
        const std::size_t cell =
            static_cast<std::size_t>(row) * numResources_ + use.resource;
        assert(cells_[cell] == kFree && "double booking in MRT");
        cells_[cell] = op;
        setCellBits(row, use.resource);
        held[count++] = static_cast<std::int32_t>(cell);
    }
    heldCount_[op] = count;
#ifdef IMS_EXPENSIVE_CHECKS
    assert(masksConsistent());
#endif
}

void
ModuloReservationTable::release(int op)
{
    assert(op >= 0 && op < numOps_);
    const std::int32_t* held =
        heldCells_.data() + static_cast<std::size_t>(op) * heldStride_;
    const int count = heldCount_[op];
    for (int i = 0; i < count; ++i) {
        const std::int32_t cell = held[i];
        assert(cells_[cell] == op);
        cells_[cell] = kFree;
        clearCellBits(cell / numResources_, cell % numResources_);
    }
    heldCount_[op] = 0;
#ifdef IMS_EXPENSIVE_CHECKS
    assert(masksConsistent());
#endif
}

bool
ModuloReservationTable::selfConflicts(const machine::ReservationTable& table,
                                      int ii)
{
    const auto& uses = table.uses();
    for (std::size_t i = 0; i < uses.size(); ++i) {
        for (std::size_t j = i + 1; j < uses.size(); ++j) {
            if (uses[i].resource == uses[j].resource &&
                (uses[j].time - uses[i].time) % ii == 0) {
                return true;
            }
        }
    }
    return false;
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
