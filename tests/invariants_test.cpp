#include <gtest/gtest.h>

#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/compiled_reservations.hpp"
#include "machine/cydra5.hpp"
#include "mii/mii.hpp"
#include "mii/min_dist.hpp"
#include "mii/rec_mii.hpp"
#include "sched/mrt.hpp"
#include "support/rng.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace ims;

/**
 * MinDist closure property: the all-pairs longest-path matrix must be
 * transitively closed, i.e. d[i][j] >= d[i][k] + d[k][j] for every k
 * (otherwise the path through k would have been longer).
 */
TEST(MinDistInvariants, MatrixIsTransitivelyClosed)
{
    const auto machine = machine::cydra5();
    support::Rng rng(8801);
    for (int t = 0; t < 12; ++t) {
        const auto loop = workloads::generateLoop(rng, "closure");
        const auto g = graph::buildDepGraph(loop, machine);
        const auto sccs = graph::findSccs(g);
        const int ii = mii::computeTrueRecMii(g, sccs) + (t % 3);
        const mii::MinDistMatrix d(g, ii);
        const int n = d.size();
        for (int i = 0; i < n; ++i) {
            for (int k = 0; k < n; ++k) {
                if (d.at(i, k) == mii::MinDistMatrix::kMinusInf)
                    continue;
                for (int j = 0; j < n; ++j) {
                    if (d.at(k, j) == mii::MinDistMatrix::kMinusInf)
                        continue;
                    ASSERT_GE(d.at(i, j), d.at(i, k) + d.at(k, j))
                        << loop.name() << " i=" << i << " k=" << k
                        << " j=" << j;
                }
            }
        }
    }
}

/** Every edge must be reflected in the matrix directly. */
TEST(MinDistInvariants, DominatesEveryEdge)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("state_frag");
    const auto g = graph::buildDepGraph(w.loop, machine);
    const int ii = 8;
    const mii::MinDistMatrix d(g, ii);
    for (const auto& edge : g.edges()) {
        ASSERT_GE(d.atVertex(edge.from, edge.to),
                  edge.delay - static_cast<std::int64_t>(ii) *
                                   edge.distance);
    }
}

/** Feasibility is monotone in II: once feasible, always feasible. */
TEST(MinDistInvariants, FeasibilityMonotoneInIi)
{
    const auto machine = machine::cydra5();
    support::Rng rng(5150);
    for (int t = 0; t < 15; ++t) {
        const auto loop = workloads::generateLoop(rng, "mono");
        const auto g = graph::buildDepGraph(loop, machine);
        const auto sccs = graph::findSccs(g);
        const int rec_mii = mii::computeTrueRecMii(g, sccs);
        if (rec_mii > 1) {
            EXPECT_FALSE(mii::MinDistMatrix(g, rec_mii - 1).feasible())
                << loop.name();
        }
        EXPECT_TRUE(mii::MinDistMatrix(g, rec_mii).feasible())
            << loop.name();
        EXPECT_TRUE(mii::MinDistMatrix(g, rec_mii + 3).feasible())
            << loop.name();
    }
}

/**
 * MRT round-trip property: a random sequence of reserve/release
 * operations never corrupts the table — after releasing everything the
 * table is empty, and conflicts() always agrees with reserve legality.
 */
TEST(MrtInvariants, RandomReserveReleaseRoundTrip)
{
    support::Rng rng(3117);
    const int ii = 5;
    const int resources = 4;
    const int ops = 12;
    sched::ModuloReservationTable mrt(ii, resources);

    // One random single-use table per op.
    std::vector<machine::CompiledReservationTable> tables;
    for (int op = 0; op < ops; ++op) {
        machine::ReservationTable table;
        table.addUse(rng.uniformInt(0, 3), rng.uniformInt(0, resources - 1));
        tables.emplace_back(table, ii, resources);
    }

    std::vector<bool> held(ops, false);
    std::vector<int> at(ops, 0);
    for (int step = 0; step < 2000; ++step) {
        const int op = rng.uniformInt(0, ops - 1);
        if (held[op]) {
            mrt.release(op, tables[op], at[op]);
            held[op] = false;
        } else {
            const int time = rng.uniformInt(0, 20);
            if (!mrt.conflicts(tables[op], time)) {
                mrt.reserve(op, tables[op], time);
                held[op] = true;
                at[op] = time;
            }
        }
        // Count invariant: one cell per held op (single-use tables).
        int expected = 0;
        for (bool h : held)
            expected += h;
        ASSERT_EQ(mrt.reservedCellCount(), expected);
    }
    for (int op = 0; op < ops; ++op) {
        if (held[op])
            mrt.release(op, tables[op], at[op]);
    }
    EXPECT_EQ(mrt.reservedCellCount(), 0);
    EXPECT_TRUE(mrt.masksConsistent());
}

/**
 * Generated loops keep the dependence-density band the Table 4 fit
 * relies on (edges per op between 1 and 4).
 */
TEST(WorkloadInvariants, EdgeDensityBand)
{
    const auto machine = machine::cydra5();
    support::Rng rng(9090);
    long long edges = 0, ops = 0;
    for (int t = 0; t < 120; ++t) {
        const auto loop = workloads::generateLoop(rng, "density");
        const auto g = graph::buildDepGraph(loop, machine);
        edges += g.numRealEdges();
        ops += g.numOps();
    }
    const double density = static_cast<double>(edges) / ops;
    EXPECT_GT(density, 1.0);
    EXPECT_LT(density, 4.0);
}

/** RecMII via the production path never looks below its start. */
TEST(MiiInvariants, ProductionSearchRespectsFloor)
{
    const auto machine = machine::cydra5();
    for (const char* name : {"init_store", "daxpy", "first_order_rec"}) {
        const auto w = workloads::kernelByName(name);
        const auto g = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(g);
        const int rec = mii::computeTrueRecMii(g, sccs);
        for (int floor : {1, rec, rec + 5}) {
            EXPECT_EQ(mii::computeRecMiiPerScc(g, sccs, floor),
                      std::max(rec, floor))
                << name << " floor " << floor;
        }
    }
}

} // namespace
