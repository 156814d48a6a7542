#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "machine/compiled_reservations.hpp"
#include "machine/machine_model.hpp"
#include "machine/reservation_table.hpp"
#include "sched/mrt.hpp"

namespace {

using namespace ims;
using machine::CompiledReservationTable;
using machine::CompiledTableCache;
using machine::ReservationTable;
using sched::ModuloReservationTable;

/** Reference slot scan: probe every candidate against the owner cells. */
int
referenceFirstFreeSlot(const ModuloReservationTable& mrt,
                       const ReservationTable& table, int min_time)
{
    for (int t = min_time; t < min_time + mrt.ii(); ++t) {
        if (!mrt.conflicts(table, t))
            return t;
    }
    return -1;
}

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
 * Drives a random reserve/release sequence and checks, after every
 * mutation, that (a) the per-resource row bitsets still agree with the
 * owner-cell grid and (b) the compiled conflict test and the
 * word-parallel slot scan give exactly the answers of the owner-cell
 * reference implementation, for every probe table at several probe
 * times.
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
    for (int op = 0; op < kNumOps; ++op)
        opTables.push_back(randomTable(rng, ii, num_resources));
    std::vector<ReservationTable> probes;
    std::vector<CompiledReservationTable> compiledProbes;
    for (int i = 0; i < kNumProbes; ++i) {
        probes.push_back(randomTable(rng, ii, num_resources));
        compiledProbes.emplace_back(probes.back(), ii, num_resources);
    }

    ModuloReservationTable mrt(ii, num_resources, kNumOps);
    std::vector<bool> held(kNumOps, false);

    std::uniform_int_distribution<int> pick_op(0, kNumOps - 1);
    std::uniform_int_distribution<int> pick_time(0, 4 * ii);
    std::uniform_int_distribution<int> coin(0, 99);

    const auto checkProbes = [&] {
        ASSERT_TRUE(mrt.masksConsistent());
        for (int i = 0; i < kNumProbes; ++i) {
            EXPECT_EQ(compiledProbes[i].selfConflicts(),
                      ModuloReservationTable::selfConflicts(probes[i], ii))
                << "probe " << i;
            for (int trial = 0; trial < 4; ++trial) {
                const int t = pick_time(rng);
                EXPECT_EQ(mrt.conflicts(compiledProbes[i], t),
                          mrt.conflicts(probes[i], t))
                    << "probe " << i << " time " << t;
                if (!compiledProbes[i].selfConflicts()) {
                    EXPECT_EQ(mrt.firstFreeSlot(compiledProbes[i], t),
                              referenceFirstFreeSlot(mrt, probes[i], t))
                        << "probe " << i << " min_time " << t;
                }
            }
        }
    };

    for (int step = 0; step < kSteps; ++step) {
        const int op = pick_op(rng);
        if (held[op]) {
            mrt.release(op);
            held[op] = false;
        } else if (coin(rng) < 70) {
            // Reserve at a conflict-free slot when one exists (reserve
            // requires free cells, like the scheduler after displacement).
            if (ModuloReservationTable::selfConflicts(opTables[op], ii))
                continue;
            const int slot =
                referenceFirstFreeSlot(mrt, opTables[op], pick_time(rng));
            if (slot < 0)
                continue;
            mrt.reserve(op, opTables[op], slot);
            held[op] = true;
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
    ModuloReservationTable mrt(5, 2, 2);
    const CompiledReservationTable pseudo(ReservationTable{}, 5, 2);
    EXPECT_TRUE(pseudo.empty());
    EXPECT_EQ(mrt.firstFreeSlot(pseudo, 7), 7);
}

TEST(CompiledMrtTest, CacheReusesPerAlternativeListAndIi)
{
    std::vector<machine::Alternative> alts(2);
    alts[0].table.addUse(0, 0);
    alts[1].table.addUse(1, 1);

    CompiledTableCache cache;
    const auto& first = cache.get(alts, 4, 2);
    EXPECT_EQ(cache.size(), 1u);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0].ii(), 4);

    // Same key: same entry, same storage.
    const auto& again = cache.get(alts, 4, 2);
    EXPECT_EQ(&again, &first);
    EXPECT_EQ(cache.size(), 1u);

    // A different II is a distinct compilation; earlier references
    // stay valid (deque storage).
    const auto& other = cache.get(alts, 5, 2);
    EXPECT_EQ(other[0].ii(), 5);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(&cache.get(alts, 4, 2), &first);
}

} // namespace
