#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "machine/compiled_reservations.hpp"
#include "machine/reservation_table.hpp"
#include "sched/mrt.hpp"

namespace {

using namespace ims;
using machine::CompiledReservationTable;
using machine::ReservationTable;
using sched::ModuloReservationTable;

/**
 * Test-local reference: an owner grid over raw reservation tables, which
 * answers every question cell by cell from the use list. It shares no
 * code with the MRT, whose queries all take compiled tables.
 */
class ReferenceGrid
{
  public:
    ReferenceGrid(int ii, int num_resources)
        : ii_(ii), numResources_(num_resources),
          owners_(static_cast<std::size_t>(ii) * num_resources, -1)
    {
    }

    int
    owner(int row, int resource) const
    {
        return owners_[static_cast<std::size_t>(row) * numResources_ +
                       resource];
    }

    bool
    conflicts(const ReservationTable& table, int time) const
    {
        return !conflictingOps(table, time).empty();
    }

    std::vector<int>
    conflictingOps(const ReservationTable& table, int time) const
    {
        std::vector<int> ops;
        for (const auto& use : table.uses()) {
            const int holder = owners_[cell(time + use.time, use.resource)];
            if (holder >= 0)
                ops.push_back(holder);
        }
        std::sort(ops.begin(), ops.end());
        ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
        return ops;
    }

    /** Probe every candidate of the window, earliest first. */
    int
    firstFreeSlot(const ReservationTable& table, int min_time) const
    {
        for (int t = min_time; t < min_time + ii_; ++t) {
            if (!conflicts(table, t))
                return t;
        }
        return -1;
    }

    void
    reserve(int op, const ReservationTable& table, int time)
    {
        for (const auto& use : table.uses()) {
            int& holder = owners_[cell(time + use.time, use.resource)];
            EXPECT_EQ(holder, -1) << "double booking";
            holder = op;
        }
    }

    void
    release(const ReservationTable& table, int time)
    {
        for (const auto& use : table.uses())
            owners_[cell(time + use.time, use.resource)] = -1;
    }

    /** Two uses of one resource in congruent rows. */
    static bool
    selfConflicts(const ReservationTable& table, int ii)
    {
        const auto& uses = table.uses();
        for (std::size_t i = 0; i < uses.size(); ++i) {
            for (std::size_t j = i + 1; j < uses.size(); ++j) {
                if (uses[i].resource == uses[j].resource &&
                    (uses[j].time - uses[i].time) % ii == 0)
                    return true;
            }
        }
        return false;
    }

  private:
    std::size_t
    cell(int time, int resource) const
    {
        const int row = (time % ii_ + ii_) % ii_;
        return static_cast<std::size_t>(row) * numResources_ + resource;
    }

    int ii_;
    int numResources_;
    std::vector<int> owners_;
};

ReservationTable
randomTable(std::mt19937& rng, int ii, int num_resources)
{
    std::uniform_int_distribution<int> num_uses(0, 6);
    std::uniform_int_distribution<int> time(0, 3 * ii);
    std::uniform_int_distribution<int> resource(0, num_resources - 1);
    ReservationTable table;
    const int n = num_uses(rng);
    for (int i = 0; i < n; ++i)
        table.addUse(time(rng), resource(rng));
    return table;
}

/**
 * Drives one random reserve/release sequence through the MRT (compiled
 * tables) and the reference grid (raw tables), and checks after every
 * mutation that (a) the MRT's per-resource row bitsets agree with its
 * owner cells, (b) both grids hold the same owner in every cell and
 * (c) the compiled conflict test, word-parallel slot scan and
 * displacement query give exactly the reference's answers, for every
 * probe table at several probe times.
 */
void
fuzzAgainstReference(unsigned seed, int ii, int num_resources)
{
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " ii=" + std::to_string(ii) +
                 " resources=" + std::to_string(num_resources));
    std::mt19937 rng(seed);
    constexpr int kNumOps = 24;
    constexpr int kNumProbes = 8;
    constexpr int kSteps = 200;

    // One fixed table per op (as in the scheduler, where an op's
    // alternative tables are immutable) plus standalone probe tables.
    std::vector<ReservationTable> opTables;
    std::vector<CompiledReservationTable> compiledOps;
    for (int op = 0; op < kNumOps; ++op) {
        opTables.push_back(randomTable(rng, ii, num_resources));
        compiledOps.emplace_back(opTables.back(), ii, num_resources);
    }
    std::vector<ReservationTable> probes;
    std::vector<CompiledReservationTable> compiledProbes;
    for (int i = 0; i < kNumProbes; ++i) {
        probes.push_back(randomTable(rng, ii, num_resources));
        compiledProbes.emplace_back(probes.back(), ii, num_resources);
    }

    ModuloReservationTable mrt(ii, num_resources);
    ReferenceGrid reference(ii, num_resources);
    std::vector<bool> held(kNumOps, false);
    std::vector<int> heldAt(kNumOps, 0);

    std::uniform_int_distribution<int> pick_op(0, kNumOps - 1);
    std::uniform_int_distribution<int> pick_time(0, 4 * ii);
    std::uniform_int_distribution<int> coin(0, 99);
    std::vector<int> owners;

    const auto checkProbes = [&] {
        ASSERT_TRUE(mrt.masksConsistent());
        for (int row = 0; row < ii; ++row) {
            for (int resource = 0; resource < num_resources; ++resource) {
                ASSERT_EQ(mrt.owner(row, resource),
                          reference.owner(row, resource))
                    << "row " << row << " resource " << resource;
            }
        }
        for (int i = 0; i < kNumProbes; ++i) {
            EXPECT_EQ(compiledProbes[i].selfConflicts(),
                      ReferenceGrid::selfConflicts(probes[i], ii))
                << "probe " << i;
            for (int trial = 0; trial < 4; ++trial) {
                const int t = pick_time(rng);
                EXPECT_EQ(mrt.conflicts(compiledProbes[i], t),
                          reference.conflicts(probes[i], t))
                    << "probe " << i << " time " << t;
                mrt.conflictingOps(compiledProbes[i], t, owners);
                EXPECT_EQ(owners, reference.conflictingOps(probes[i], t))
                    << "probe " << i << " time " << t;
                if (!compiledProbes[i].selfConflicts()) {
                    EXPECT_EQ(mrt.firstFreeSlot(compiledProbes[i], t),
                              reference.firstFreeSlot(probes[i], t))
                        << "probe " << i << " min_time " << t;
                }
            }
        }
    };

    for (int step = 0; step < kSteps; ++step) {
        const int op = pick_op(rng);
        if (held[op]) {
            mrt.release(op, compiledOps[op], heldAt[op]);
            reference.release(opTables[op], heldAt[op]);
            held[op] = false;
        } else if (coin(rng) < 70) {
            // Reserve at a conflict-free slot when one exists (reserve
            // requires free cells, like the scheduler after displacement).
            if (ReferenceGrid::selfConflicts(opTables[op], ii))
                continue;
            const int slot =
                reference.firstFreeSlot(opTables[op], pick_time(rng));
            if (slot < 0)
                continue;
            mrt.reserve(op, compiledOps[op], slot);
            reference.reserve(op, opTables[op], slot);
            held[op] = true;
            heldAt[op] = slot;
        }
        checkProbes();
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(CompiledMrtTest, RandomizedMatchesOwnerCells)
{
    unsigned seed = 1;
    for (int ii : {1, 2, 3, 5, 7, 13})
        for (int resources : {1, 3, 17})
            fuzzAgainstReference(seed++, ii, resources);
}

TEST(CompiledMrtTest, RandomizedMultiWordColumns)
{
    // IIs past 64 exercise multi-word row bitsets and the cross-word
    // carry in the rotation kernel.
    unsigned seed = 100;
    for (int ii : {63, 64, 65, 70, 128, 130})
        fuzzAgainstReference(seed++, ii, 5);
}

TEST(CompiledMrtTest, RandomizedManyResources)
{
    // Resource ids past one machine word (more than 64 resources).
    unsigned seed = 200;
    for (int resources : {64, 65, 130})
        for (int ii : {3, 7, 66})
            fuzzAgainstReference(seed++, ii, resources);
}

TEST(CompiledMrtTest, CompileReducesUsesModuloIi)
{
    ReservationTable table;
    table.addUse(0, 2);
    table.addUse(5, 1); // rotation 5 mod 3 = 2
    table.addUse(7, 2); // rotation 7 mod 3 = 1
    const CompiledReservationTable compiled(table, 3, 4);
    EXPECT_FALSE(compiled.selfConflicts());
    ASSERT_EQ(compiled.numUses(), 3);
    // Sorted by (rotation, resource).
    EXPECT_EQ(compiled.use(0).rotation, 0);
    EXPECT_EQ(compiled.use(0).resource, 2);
    EXPECT_EQ(compiled.use(1).rotation, 1);
    EXPECT_EQ(compiled.use(1).resource, 2);
    EXPECT_EQ(compiled.use(2).rotation, 2);
    EXPECT_EQ(compiled.use(2).resource, 1);
}

TEST(CompiledMrtTest, SelfConflictMergedButDetected)
{
    ReservationTable table;
    table.addUse(0, 0);
    table.addUse(4, 0); // collides with use 0 at II = 4
    const CompiledReservationTable compiled(table, 4, 2);
    EXPECT_TRUE(compiled.selfConflicts());
    // The duplicate (rotation 0, resource 0) is merged away so the use
    // list stays valid for plain conflict queries.
    EXPECT_EQ(compiled.numUses(), 1);
}

TEST(CompiledMrtTest, EmptyTableScansToMinTime)
{
    ModuloReservationTable mrt(5, 2);
    const CompiledReservationTable pseudo(ReservationTable{}, 5, 2);
    EXPECT_TRUE(pseudo.empty());
    EXPECT_EQ(mrt.firstFreeSlot(pseudo, 7), 7);
}

} // namespace
