#include <gtest/gtest.h>

#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/cydra5.hpp"
#include "mii/min_dist.hpp"
#include "mii/mii.hpp"
#include "sched/height_r.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;
using graph::DepEdge;
using graph::DepGraph;
using graph::DepKind;

DepEdge
edge(int from, int to, int delay, int distance, DepKind kind = DepKind::kFlow)
{
    DepEdge e;
    e.from = from;
    e.to = to;
    e.kind = kind;
    e.delay = delay;
    e.distance = distance;
    return e;
}

/** Add the START/STOP pseudo edges the builder would create. */
void
addPseudo(DepGraph& g, const std::vector<int>& latencies)
{
    for (int op = 0; op < g.numOps(); ++op) {
        g.addEdge(edge(g.start(), op, 0, 0, DepKind::kPseudo));
        g.addEdge(edge(op, g.stop(), latencies[op], 0, DepKind::kPseudo));
    }
}

TEST(HeightRTest, ChainHeightsAreSuffixDelays)
{
    // 0 ->(4) 1 ->(5) 2, latencies 4,5,2.
    DepGraph g(3);
    g.addEdge(edge(0, 1, 4, 0));
    g.addEdge(edge(1, 2, 5, 0));
    addPseudo(g, {4, 5, 2});
    const auto sccs = graph::findSccs(g);
    const auto h = sched::computeHeightR(g, sccs, 1);
    EXPECT_EQ(h[g.stop()], 0);
    EXPECT_EQ(h[2], 2);       // just its own latency to STOP
    EXPECT_EQ(h[1], 7);       // 5 + h[2]
    EXPECT_EQ(h[0], 11);      // 4 + h[1]
    EXPECT_EQ(h[g.start()], 11);
}

TEST(HeightRTest, InterIterationEdgesSubtractIiTimesDistance)
{
    // P -> Q with distance 2: HeightR(P) = H(Q) + delay - II*2.
    DepGraph g(2);
    g.addEdge(edge(0, 1, 10, 2));
    addPseudo(g, {1, 1});
    const auto sccs = graph::findSccs(g);
    const auto h = sched::computeHeightR(g, sccs, 3);
    EXPECT_EQ(h[1], 1);
    // max(own latency 1, 1 + 10 - 6 = 5).
    EXPECT_EQ(h[0], 5);
}

TEST(HeightRTest, RecurrenceFixedPointConverges)
{
    // Two-op circuit with total delay 9, distance 1, at II = 9 (tight).
    DepGraph g(2);
    g.addEdge(edge(0, 1, 5, 0));
    g.addEdge(edge(1, 0, 4, 1));
    addPseudo(g, {5, 4});
    const auto sccs = graph::findSccs(g);
    const auto h = sched::computeHeightR(g, sccs, 9);
    // h[1] = max(4, h[0] + 4 - 9); h[0] = max(5, h[1] + 5).
    // Fixed point: h[1] = 4, h[0] = 9? check: h[1] = max(4, 9-5)=4. Yes.
    EXPECT_EQ(h[1], 4);
    EXPECT_EQ(h[0], 9);
}

TEST(HeightRTest, PositiveCycleDetected)
{
    DepGraph g(2);
    g.addEdge(edge(0, 1, 5, 0));
    g.addEdge(edge(1, 0, 4, 1));
    addPseudo(g, {5, 4});
    const auto sccs = graph::findSccs(g);
    // II = 8 < RecMII = 9: the recurrence has positive weight.
    EXPECT_THROW(sched::computeHeightR(g, sccs, 8), support::Error);
}

TEST(HeightRTest, MatchesMinDistToStopOnEveryKernel)
{
    // §3.2: "If the MinDist matrix for the entire dependence graph has
    // been computed, HeightR(P) is directly available as
    // MinDist[P, STOP]" — the iterative computation must agree.
    const auto machine = machine::cydra5();
    for (const auto& w : workloads::kernelLibrary()) {
        const auto g = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(g);
        const auto mii = mii::computeMii(w.loop, machine, g, sccs);
        for (int ii : {mii.mii, mii.mii + 1, mii.mii + 7}) {
            const auto h = sched::computeHeightR(g, sccs, ii);
            const mii::MinDistMatrix dist(g, ii);
            for (int v = 0; v < g.numVertices(); ++v) {
                if (v == g.stop())
                    continue; // MinDist[STOP,STOP] is -inf by definition
                EXPECT_EQ(h[v], dist.atVertex(v, g.stop()))
                    << w.loop.name() << " II=" << ii << " v=" << v;
            }
        }
    }
}

TEST(HeightRTest, TopologicalPropertyForAcyclicLoops)
{
    // For a vectorizable loop at II >= MII, every distance-0 edge P -> Q
    // satisfies HeightR(P) >= HeightR(Q) + delay, so scheduling in height
    // order is a topological order (the property §3.2 credits HeightR
    // with).
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("hydro_frag");
    const auto g = graph::buildDepGraph(w.loop, machine);
    const auto sccs = graph::findSccs(g);
    const auto h = sched::computeHeightR(g, sccs, 5);
    for (const auto& e : g.edges()) {
        if (e.distance == 0) {
            EXPECT_GE(h[e.from], h[e.to] + e.delay);
        }
    }
}

TEST(AcyclicHeightTest, IgnoresInterIterationEdges)
{
    DepGraph g(2);
    g.addEdge(edge(0, 1, 4, 0));
    g.addEdge(edge(1, 0, 50, 1)); // ignored (distance 1)
    addPseudo(g, {4, 1});
    const auto h = sched::computeAcyclicHeight(g);
    EXPECT_EQ(h[1], 1);
    EXPECT_EQ(h[0], 5);
    EXPECT_EQ(h[g.stop()], 0);
    EXPECT_EQ(h[g.start()], 5);
}

TEST(AcyclicHeightTest, ZeroDistanceCycleRejected)
{
    DepGraph g(2);
    g.addEdge(edge(0, 1, 1, 0));
    g.addEdge(edge(1, 0, 1, 0));
    addPseudo(g, {1, 1});
    EXPECT_THROW(sched::computeAcyclicHeight(g), support::Error);
}

} // namespace
