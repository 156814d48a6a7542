#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/cydra5.hpp"
#include "machine/machines.hpp"
#include "mii/mii.hpp"
#include "mii/min_dist.hpp"
#include "mii/rec_mii.hpp"
#include "mii/res_mii.hpp"
#include "reference_loops.hpp"
#include "sched/schedule.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "transform/unroll.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace ims;
using graph::DepEdge;
using graph::DepGraph;
using graph::DepKind;

DepEdge
edge(int from, int to, int delay, int distance)
{
    DepEdge e;
    e.from = from;
    e.to = to;
    e.kind = DepKind::kFlow;
    e.delay = delay;
    e.distance = distance;
    return e;
}

struct KernelMii
{
    const char* name;
    int resMii;
    int mii;
};

class ResMiiTest : public ::testing::Test
{
  protected:
    machine::MachineModel machine_ = machine::cydra5();
};

TEST_F(ResMiiTest, DaxpyIsMemoryPortBound)
{
    // daxpy: 2 loads + 1 store over 2 memory ports -> ResMII 2.
    const auto w = workloads::kernelByName("daxpy");
    const auto result = mii::computeResMii(w.loop, machine_);
    EXPECT_EQ(result.resMii, 2);
    const std::string critical =
        machine_.resourceName(result.criticalResource);
    EXPECT_TRUE(critical == "mem-port-0" || critical == "mem-port-1")
        << critical;
}

TEST_F(ResMiiTest, DivKernelBoundByBlockedMultiplierStage)
{
    const auto w = workloads::kernelByName("div_kernel");
    const auto result = mii::computeResMii(w.loop, machine_);
    EXPECT_EQ(result.resMii, 18);
    EXPECT_EQ(machine_.resourceName(result.criticalResource),
              "mult-stage-1");
}

TEST_F(ResMiiTest, InitStoreNeedsOnlyOneCycle)
{
    const auto w = workloads::kernelByName("init_store");
    EXPECT_EQ(mii::computeResMii(w.loop, machine_).resMii, 1);
}

TEST_F(ResMiiTest, GreedySpreadsAcrossAlternatives)
{
    // multi_array: 4 loads + 4 stores over 2 ports -> 4 per port.
    const auto w = workloads::kernelByName("multi_array");
    const auto result = mii::computeResMii(w.loop, machine_);
    EXPECT_EQ(result.resMii, 4);
    // Usage must be balanced across the two ports.
    int port0 = 0, port1 = 0;
    for (int r = 0; r < machine_.numResources(); ++r) {
        if (machine_.resourceName(r) == "mem-port-0")
            port0 = result.usage[r];
        if (machine_.resourceName(r) == "mem-port-1")
            port1 = result.usage[r];
    }
    EXPECT_EQ(port0, 4);
    EXPECT_EQ(port1, 4);
}

TEST_F(ResMiiTest, SortsByAlternativeCount)
{
    // Chosen alternatives are recorded for every op.
    const auto w = workloads::kernelByName("daxpy");
    const auto result = mii::computeResMii(w.loop, machine_);
    EXPECT_EQ(static_cast<int>(result.chosenAlternative.size()),
              w.loop.size());
    for (int op = 0; op < w.loop.size(); ++op) {
        const int alts =
            machine_.numAlternatives(w.loop.operation(op).opcode);
        EXPECT_GE(result.chosenAlternative[op], 0);
        EXPECT_LT(result.chosenAlternative[op], alts);
    }
}

TEST(MinDistTest, InitializationUsesDelayMinusIiTimesDistance)
{
    DepGraph g(2);
    g.addEdge(edge(0, 1, 7, 2));
    const mii::MinDistMatrix m(g, std::vector<graph::VertexId>{0, 1}, 3);
    EXPECT_EQ(m.atVertex(0, 1), 7 - 3 * 2);
    EXPECT_EQ(m.atVertex(1, 0), mii::MinDistMatrix::kMinusInf);
}

TEST(MinDistTest, ClosureComposesPaths)
{
    DepGraph g(3);
    g.addEdge(edge(0, 1, 4, 0));
    g.addEdge(edge(1, 2, 5, 0));
    const mii::MinDistMatrix m(g, {0, 1, 2}, 1);
    EXPECT_EQ(m.atVertex(0, 2), 9);
}

TEST(MinDistTest, ParallelEdgesTakeMax)
{
    DepGraph g(2);
    g.addEdge(edge(0, 1, 2, 0));
    g.addEdge(edge(0, 1, 9, 1));
    const mii::MinDistMatrix m(g, {0, 1}, 4);
    EXPECT_EQ(m.atVertex(0, 1), 5); // max(2, 9-4)
}

TEST(MinDistTest, DiagonalDetectsInfeasibleIi)
{
    // Circuit delay 9, distance 1: feasible iff II >= 9.
    DepGraph g(2);
    g.addEdge(edge(0, 1, 5, 0));
    g.addEdge(edge(1, 0, 4, 1));
    for (int ii = 1; ii <= 12; ++ii) {
        const mii::MinDistMatrix m(g, {0, 1}, ii);
        EXPECT_EQ(m.feasible(), ii >= 9) << "II " << ii;
        if (ii == 9) {
            EXPECT_EQ(m.maxDiagonal(), 0); // tight at the RecMII
        }
    }
}

TEST(MinDistTest, CountersCountInvocationsAndInnerSteps)
{
    // A two-edge path 0 -> 1 -> 2 has exactly one productive closure step
    // (combining the finite halves via k = 1). The counter counts only
    // productive (i, k, j) combinations — iterations skipped because a
    // path half is -infinity are no-ops and are not billed (Table 4
    // counts work, not loop trips; see docs/api.md).
    DepGraph g(3);
    g.addEdge(edge(0, 1, 1, 0));
    g.addEdge(edge(1, 2, 1, 0));
    support::Counters counters;
    const mii::MinDistMatrix m(g, {0, 1, 2}, 1, &counters);
    EXPECT_EQ(counters.minDistInvocations, 1u);
    EXPECT_EQ(counters.minDistInnerSteps, 1u);
    EXPECT_EQ(m.atVertex(0, 2), 2);
}

TEST(MinDistTest, RecomputeMatchesFreshConstruction)
{
    // Reusing one matrix across candidate IIs must agree entry-for-entry
    // with building a fresh matrix per II (the RecMII search relies on
    // this).
    DepGraph g(3);
    g.addEdge(edge(0, 1, 3, 0));
    g.addEdge(edge(1, 2, 4, 0));
    g.addEdge(edge(2, 0, 5, 2));
    mii::MinDistMatrix reused(g, {0, 1, 2}, 1);
    for (int ii = 1; ii <= 8; ++ii) {
        reused.recompute(ii);
        const mii::MinDistMatrix fresh(g, {0, 1, 2}, ii);
        ASSERT_EQ(reused.ii(), fresh.ii());
        for (int i = 0; i < 3; ++i) {
            for (int j = 0; j < 3; ++j)
                EXPECT_EQ(reused.at(i, j), fresh.at(i, j))
                    << "ii " << ii << " at (" << i << "," << j << ")";
        }
        EXPECT_EQ(reused.feasible(), fresh.feasible()) << "ii " << ii;
    }
}

/**
 * Reference closure: the plain Floyd-Warshall triple loop, billing one
 * inner step per (i, k, j) with both path halves finite. MinDistMatrix's
 * bitset-gathered closure must reproduce its matrix and both counters bit
 * for bit.
 */
struct ReferenceMinDist
{
    std::vector<std::int64_t> matrix;
    support::Counters counters;
};

ReferenceMinDist
referenceMinDist(const DepGraph& g,
                 const std::vector<graph::VertexId>& vertices, int ii)
{
    constexpr std::int64_t kMinusInf = mii::MinDistMatrix::kMinusInf;
    const std::size_t n = vertices.size();
    std::vector<int> index(g.numVertices(), -1);
    for (std::size_t i = 0; i < n; ++i)
        index[vertices[i]] = static_cast<int>(i);

    ReferenceMinDist ref;
    ref.counters.minDistInvocations = 1;
    auto& m = ref.matrix;
    m.assign(n * n, kMinusInf);
    for (const DepEdge& e : g.edges()) {
        const int i = index[e.from];
        const int j = index[e.to];
        if (i < 0 || j < 0)
            continue;
        auto& cell = m[static_cast<std::size_t>(i) * n + j];
        cell = std::max(cell, static_cast<std::int64_t>(e.delay) -
                                  static_cast<std::int64_t>(ii) * e.distance);
    }
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::int64_t ik = m[i * n + k];
            if (ik == kMinusInf)
                continue;
            for (std::size_t j = 0; j < n; ++j) {
                const std::int64_t kj = m[k * n + j];
                if (kj == kMinusInf)
                    continue;
                ++ref.counters.minDistInnerSteps;
                auto& cell = m[i * n + j];
                cell = std::max(cell, ik + kj);
            }
        }
    }
    return ref;
}

::testing::AssertionResult
matchesReference(const mii::MinDistMatrix& got,
                 const support::Counters& counters,
                 const ReferenceMinDist& ref)
{
    const int n = got.size();
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const std::int64_t want =
                ref.matrix[static_cast<std::size_t>(i) * n + j];
            if (got.at(i, j) != want)
                return ::testing::AssertionFailure()
                       << "II " << got.ii() << " at (" << i << "," << j
                       << "): " << got.at(i, j) << " vs " << want;
        }
    }
    if (counters.minDistInnerSteps != ref.counters.minDistInnerSteps ||
        counters.minDistInvocations != ref.counters.minDistInvocations)
        return ::testing::AssertionFailure()
               << "II " << got.ii() << " counters: inner steps "
               << counters.minDistInnerSteps << " vs "
               << ref.counters.minDistInnerSteps << ", invocations "
               << counters.minDistInvocations << " vs "
               << ref.counters.minDistInvocations;
    return ::testing::AssertionSuccess();
}

/**
 * The closure's property-test inputs on cydra5: the kernel library, 200
 * generated loops, and daxpy/stencil3/hydro_frag unrolled to ~300 ops.
 */
std::vector<ir::Loop>
closureTestLoops()
{
    std::vector<ir::Loop> loops;
    for (auto& w : workloads::kernelLibrary())
        loops.push_back(std::move(w.loop));
    support::Rng rng(20261017);
    for (int i = 0; i < 200; ++i)
        loops.push_back(
            workloads::generateLoop(rng, "closure_" + std::to_string(i)));
    for (const char* kernel : {"daxpy", "stencil3", "hydro_frag"}) {
        const ir::Loop base = workloads::kernelByName(kernel).loop;
        const int factor = static_cast<int>(
            std::lround(300.0 / static_cast<double>(base.size())));
        loops.push_back(transform::unrollLoop(base, factor));
    }
    return loops;
}

/** What checkClosureAgainstReference saw besides the comparisons. */
struct ClosureCheck
{
    /** Whole-graph matrices with a positive diagonal. */
    int infeasible = 0;
    /** Share of finite cells in the whole-graph matrix at the achieved II. */
    double finiteShare = 0.0;
};

/**
 * Compare the closure with the reference at the achieved II and at the
 * infeasible II - 1 and 1 (positive diagonal), over the whole graph and
 * over every SCC subset.
 */
ClosureCheck
checkClosureAgainstReference(const ir::Loop& loop,
                             const machine::MachineModel& machine)
{
    SCOPED_TRACE(loop.name());
    const auto g = graph::buildDepGraph(loop, machine);
    const auto sccs = graph::findSccs(g);
    const int achieved = sched::schedule(loop, machine, g, sccs).schedule.ii;
    std::vector<graph::VertexId> all(g.numVertices());
    std::iota(all.begin(), all.end(), 0);
    ClosureCheck check;
    for (const int ii : {achieved, achieved - 1, 1}) {
        if (ii < 1)
            continue;
        support::Counters counters;
        const mii::MinDistMatrix whole(g, ii, &counters);
        EXPECT_TRUE(matchesReference(whole, counters,
                                     referenceMinDist(g, all, ii)));
        check.infeasible += !whole.feasible();
        if (ii == achieved) {
            int finite = 0;
            for (int i = 0; i < whole.size(); ++i) {
                for (int j = 0; j < whole.size(); ++j)
                    finite += whole.at(i, j) != mii::MinDistMatrix::kMinusInf;
            }
            check.finiteShare = static_cast<double>(finite) /
                                (whole.size() * whole.size());
        }
        for (const auto& component : sccs.components()) {
            support::Counters scc_counters;
            const mii::MinDistMatrix subset(g, component, ii, &scc_counters);
            EXPECT_TRUE(matchesReference(subset, scc_counters,
                                         referenceMinDist(g, component, ii)));
        }
    }
    return check;
}

TEST(MinDistTest, GatheredClosureMatchesReferenceTripleLoop)
{
    const auto machine = machine::cydra5();
    int infeasible = 0;
    for (const ir::Loop& loop : closureTestLoops())
        infeasible += checkClosureAgainstReference(loop, machine).infeasible;
    // Dozens of the infeasible IIs really close a positive diagonal.
    EXPECT_GE(infeasible, 50);
}

TEST(MinDistTest, GatheredClosureMatchesReferenceOnRecurrenceDenseLoops)
{
    // Dense matrices, where a pivot's finite rows come from many earlier
    // pivots: the cells whose finiteness the bitsets must carry forward.
    const auto machine = machine::scalarToy();
    for (const ir::Loop& loop : test_loops::hardIiLoops(3)) {
        EXPECT_GE(checkClosureAgainstReference(loop, machine).finiteShare,
                  0.3)
            << loop.name();
    }
}

TEST(MinDistTest, RecomputeWalkingIiUpAndDownMatchesReference)
{
    // One object reused across an ascending then descending II walk, as
    // the slack priority and the exact backend reuse theirs.
    const auto machine = machine::cydra5();
    const ir::Loop base = workloads::kernelByName("hydro_frag").loop;
    for (const ir::Loop& loop : {base, transform::unrollLoop(base, 4)}) {
        SCOPED_TRACE(loop.name());
        const auto g = graph::buildDepGraph(loop, machine);
        const int achieved = sched::schedule(loop, machine).schedule.ii;
        std::vector<graph::VertexId> all(g.numVertices());
        std::iota(all.begin(), all.end(), 0);

        std::vector<int> walk;
        for (int ii = 1; ii <= achieved + 2; ++ii)
            walk.push_back(ii);
        for (int ii = achieved + 1; ii >= 1; --ii)
            walk.push_back(ii);

        support::Counters counters;
        mii::MinDistMatrix reused(g, walk.front(), &counters);
        ASSERT_TRUE(matchesReference(reused, counters,
                                     referenceMinDist(g, all, walk.front())));
        for (std::size_t step = 1; step < walk.size(); ++step) {
            support::Counters step_counters;
            reused.recompute(walk[step], &step_counters);
            ASSERT_TRUE(matchesReference(
                reused, step_counters, referenceMinDist(g, all, walk[step])));
        }
    }
}

TEST(RecMiiTest, SelfLoopBound)
{
    DepGraph g(1);
    g.addEdge(edge(0, 0, 3, 1));
    const auto sccs = graph::findSccs(g);
    EXPECT_EQ(mii::computeRecMiiPerScc(g, sccs, 1), 3);
    // Back-substituted: distance 3 -> ceil(3/3) = 1.
    DepGraph g2(1);
    g2.addEdge(edge(0, 0, 3, 3));
    const auto sccs2 = graph::findSccs(g2);
    EXPECT_EQ(mii::computeRecMiiPerScc(g2, sccs2, 1), 1);
}

TEST(RecMiiTest, StartCandidateIsAFloor)
{
    DepGraph g(1);
    g.addEdge(edge(0, 0, 3, 1));
    const auto sccs = graph::findSccs(g);
    // Production protocol never looks below the ResMII floor.
    EXPECT_EQ(mii::computeRecMiiPerScc(g, sccs, 7), 7);
}

TEST(RecMiiTest, ZeroDistanceCycleRejected)
{
    DepGraph g(2);
    g.addEdge(edge(0, 1, 1, 0));
    g.addEdge(edge(1, 0, 1, 0));
    const auto sccs = graph::findSccs(g);
    EXPECT_THROW(mii::computeRecMiiPerScc(g, sccs, 1), support::Error);
    EXPECT_THROW(mii::computeRecMiiFromCircuits(g), support::Error);
}

TEST(RecMiiTest, FractionalBoundRoundsUp)
{
    // Delay 7 over distance 2: RecMII = ceil(7/2) = 4.
    DepGraph g(2);
    g.addEdge(edge(0, 1, 3, 0));
    g.addEdge(edge(1, 0, 4, 2));
    const auto sccs = graph::findSccs(g);
    EXPECT_EQ(mii::computeRecMiiPerScc(g, sccs, 1), 4);
    EXPECT_EQ(mii::computeRecMiiFromCircuits(g), 4);
}

TEST(MiiTest, KnownKernelValues)
{
    const auto machine = machine::cydra5();
    const KernelMii expected[] = {
        {"init_store", 1, 1},    {"vec_copy", 1, 1},
        {"daxpy", 2, 2},         {"dot_raw", 2, 4},
        {"first_order_rec", 2, 9}, {"tridiag", 2, 9},
        {"div_kernel", 18, 18},  {"mem_recurrence", 2, 30},
        {"raw_counter", 1, 3},
    };
    for (const auto& k : expected) {
        const auto w = workloads::kernelByName(k.name);
        const auto g = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(g);
        const auto result = mii::computeMii(w.loop, machine, g, sccs);
        EXPECT_EQ(result.resMii, k.resMii) << k.name;
        EXPECT_EQ(result.mii, k.mii) << k.name;
    }
}

TEST(MiiTest, TrueRecMiiNeverExceedsProductionMii)
{
    const auto machine = machine::cydra5();
    for (const auto& w : workloads::kernelLibrary()) {
        const auto g = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(g);
        const auto result = mii::computeMii(w.loop, machine, g, sccs);
        const int true_rec = mii::computeTrueRecMii(g, sccs);
        EXPECT_EQ(result.mii, std::max(result.resMii, true_rec))
            << w.loop.name();
    }
}

TEST(MiiTest, MiiIsOneForEmptyRecurrenceGraphs)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("init_store");
    const auto g = graph::buildDepGraph(w.loop, machine);
    const auto sccs = graph::findSccs(g);
    EXPECT_EQ(mii::computeTrueRecMii(g, sccs), 1);
}

} // namespace
