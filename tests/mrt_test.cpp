#include <gtest/gtest.h>

#include <vector>

#include "machine/compiled_reservations.hpp"
#include "machine/reservation_table.hpp"
#include "sched/mrt.hpp"

namespace {

using namespace ims;
using machine::CompiledReservationTable;
using machine::ReservationTable;
using sched::ModuloReservationTable;

TEST(MrtTest, ConflictWrapsModuloIi)
{
    ModuloReservationTable mrt(3, 2);
    ReservationTable raw;
    raw.addUse(0, 0);
    const CompiledReservationTable table(raw, 3, 2);
    mrt.reserve(0, table, 2);
    // Row 2 of resource 0 now taken: any time congruent to 2 mod 3
    // conflicts.
    EXPECT_TRUE(mrt.conflicts(table, 2));
    EXPECT_TRUE(mrt.conflicts(table, 5));
    EXPECT_TRUE(mrt.conflicts(table, 8));
    EXPECT_FALSE(mrt.conflicts(table, 0));
    EXPECT_FALSE(mrt.conflicts(table, 1));
}

TEST(MrtTest, ComplexTableMapsEachUse)
{
    ModuloReservationTable mrt(4, 3);
    ReservationTable raw;
    raw.addUse(0, 0);
    raw.addUse(2, 1);
    raw.addUse(5, 2); // wraps to row (t+5) mod 4
    mrt.reserve(1, CompiledReservationTable(raw, 4, 3), 3);
    EXPECT_EQ(mrt.owner(3, 0), 1);       // 3+0 mod 4
    EXPECT_EQ(mrt.owner(1, 1), 1);       // 3+2 mod 4
    EXPECT_EQ(mrt.owner(0, 2), 1);       // 3+5 mod 4
    EXPECT_EQ(mrt.reservedCellCount(), 3);
}

TEST(MrtTest, ReleaseFreesAllCells)
{
    ModuloReservationTable mrt(4, 2);
    ReservationTable raw;
    raw.addUse(0, 0);
    raw.addUse(1, 1);
    const CompiledReservationTable table(raw, 4, 2);
    mrt.reserve(2, table, 6);
    EXPECT_EQ(mrt.reservedCellCount(), 2);
    mrt.release(2, table, 6);
    EXPECT_EQ(mrt.reservedCellCount(), 0);
    EXPECT_FALSE(mrt.conflicts(table, 0));
    EXPECT_TRUE(mrt.masksConsistent());
}

TEST(MrtTest, ConflictingOpsReportsUniqueOwners)
{
    ModuloReservationTable mrt(2, 3);
    ReservationTable a;
    a.addUse(0, 0);
    a.addUse(0, 2);
    ReservationTable b;
    b.addUse(0, 1);
    mrt.reserve(3, CompiledReservationTable(a, 2, 3), 0);
    mrt.reserve(4, CompiledReservationTable(b, 2, 3), 1);

    ReservationTable probe;
    probe.addUse(0, 0); // hits op 3 at row 0
    probe.addUse(1, 1); // hits op 4 at row 1
    probe.addUse(2, 2); // hits op 3 again, in another cell
    std::vector<int> owners = {7, 7}; // cleared first
    mrt.conflictingOps(CompiledReservationTable(probe, 2, 3), 0, owners);
    ASSERT_EQ(owners.size(), 2u);
    EXPECT_EQ(owners[0], 3);
    EXPECT_EQ(owners[1], 4);
}

TEST(MrtTest, SelfConflictDetection)
{
    ReservationTable block;
    block.addBlockUse(0, 5, 0); // 6 consecutive uses of one resource
    EXPECT_TRUE(CompiledReservationTable(block, 5, 1).selfConflicts());
    EXPECT_TRUE(CompiledReservationTable(block, 3, 1).selfConflicts());
    EXPECT_FALSE(CompiledReservationTable(block, 6, 1).selfConflicts());

    ReservationTable gap;
    gap.addUse(0, 0);
    gap.addUse(5, 0);
    EXPECT_TRUE(CompiledReservationTable(gap, 5, 1).selfConflicts());
    EXPECT_TRUE(CompiledReservationTable(gap, 1, 1).selfConflicts());
    EXPECT_FALSE(CompiledReservationTable(gap, 4, 1).selfConflicts());

    ReservationTable multi;
    multi.addUse(0, 0);
    multi.addUse(1, 1);
    EXPECT_FALSE(CompiledReservationTable(multi, 1, 2).selfConflicts());
}

TEST(MrtTest, EmptyTableNeverConflicts)
{
    ModuloReservationTable mrt(1, 1);
    const CompiledReservationTable pseudo(ReservationTable{}, 1, 1);
    EXPECT_FALSE(mrt.conflicts(pseudo, 0));
    mrt.reserve(0, pseudo, 0);
    EXPECT_EQ(mrt.reservedCellCount(), 0);
}

} // namespace
