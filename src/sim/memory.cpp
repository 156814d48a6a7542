#include "sim/memory.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "support/error.hpp"

namespace ims::sim {

std::int64_t
defaultMargin(const ir::Loop& loop)
{
    std::int64_t max_offset = 0;
    for (const auto& op : loop.operations()) {
        if (op.memRef)
            max_offset = std::max(max_offset,
                                  std::abs(std::int64_t{op.memRef->offset}));
    }
    return std::max<std::int64_t>(8, max_offset + loop.maxDistance() + 2);
}

int
simulatedCells(const ir::Loop& loop, int trip, std::int64_t margin)
{
    assert(trip >= 0 && margin >= 0);
    const std::int64_t cells =
        std::int64_t{loop.maxStride()} * trip + 2 * margin;
    const int arrays = std::max(1, loop.numArrays());
    if (cells > kMaxSimulatedValues / arrays) {
        throw support::CodedError(
            "sim.too_large",
            "simulating loop '" + loop.name() + "' for " +
                std::to_string(trip) + " iterations needs " +
                std::to_string(arrays) + " x " + std::to_string(cells) +
                " array cells, more than the " +
                std::to_string(kMaxSimulatedValues) + " allowed");
    }
    return static_cast<int>(cells);
}

Memory::Memory(const ir::Loop& loop, int trip_count, int margin)
    : tripCount_(trip_count), margin_(margin)
{
    arrays_.assign(loop.numArrays(),
                   std::vector<Value>(
                       simulatedCells(loop, trip_count, margin), 0.0));
}

std::size_t
Memory::cellIndex(ir::ArrayId array, int index) const
{
    assert(array >= 0 && array < static_cast<int>(arrays_.size()));
    const long long cell = static_cast<long long>(index) + margin_;
    support::check(cell >= 0 &&
                       cell < static_cast<long long>(arrays_[array].size()),
                   [&] {
                       return "array access out of simulated bounds "
                              "(index " +
                              std::to_string(index) +
                              "); increase the margin";
                   });
    return static_cast<std::size_t>(cell);
}

void
Memory::init(ir::ArrayId array, int first, const std::vector<Value>& contents)
{
    for (std::size_t k = 0; k < contents.size(); ++k)
        write(array, first + static_cast<int>(k), contents[k]);
}

Value
Memory::read(ir::ArrayId array, int index) const
{
    return arrays_[array][cellIndex(array, index)];
}

void
Memory::write(ir::ArrayId array, int index, Value value)
{
    arrays_[array][cellIndex(array, index)] = value;
}

std::vector<Value>
Memory::snapshot(ir::ArrayId array, int from, int count) const
{
    std::vector<Value> result;
    result.reserve(count);
    for (int k = 0; k < count; ++k)
        result.push_back(read(array, from + k));
    return result;
}

bool
Memory::operator==(const Memory& other) const
{
    if (tripCount_ != other.tripCount_ || margin_ != other.margin_ ||
        arrays_.size() != other.arrays_.size()) {
        return false;
    }
    for (std::size_t a = 0; a < arrays_.size(); ++a) {
        if (arrays_[a].size() != other.arrays_[a].size())
            return false;
        for (std::size_t k = 0; k < arrays_[a].size(); ++k) {
            if (!sameValue(arrays_[a][k], other.arrays_[a][k]))
                return false;
        }
    }
    return true;
}

std::string
Memory::firstDifference(const Memory& other) const
{
    if (tripCount_ != other.tripCount_ || margin_ != other.margin_ ||
        arrays_.size() != other.arrays_.size()) {
        return "memory shapes differ";
    }
    for (std::size_t a = 0; a < arrays_.size(); ++a) {
        if (arrays_[a].size() != other.arrays_[a].size())
            return "array " + std::to_string(a) + " sizes differ";
        for (std::size_t k = 0; k < arrays_[a].size(); ++k) {
            if (!sameValue(arrays_[a][k], other.arrays_[a][k])) {
                const long long logical =
                    static_cast<long long>(k) - margin_;
                return "array " + std::to_string(a) + " logical index " +
                       std::to_string(logical) + ": " +
                       std::to_string(arrays_[a][k]) + " vs " +
                       std::to_string(other.arrays_[a][k]);
            }
        }
    }
    return "";
}

} // namespace ims::sim
