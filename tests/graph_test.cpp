#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/delay_model.hpp"
#include "graph/graph_builder.hpp"
#include "ir/loop_builder.hpp"
#include "ir/parser.hpp"
#include "machine/cydra5.hpp"
#include "machine/machine_builder.hpp"
#include "machine/machines.hpp"
#include "reference_loops.hpp"
#include "support/error.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;
using graph::DelayMode;
using graph::DepKind;
using ir::Opcode;

/** Find an edge between two ops with the given kind; nullptr if absent. */
const graph::DepEdge*
findEdge(const graph::DepGraph& g, int from, int to, DepKind kind)
{
    for (const auto& edge : g.edges()) {
        if (edge.from == from && edge.to == to && edge.kind == kind)
            return &edge;
    }
    return nullptr;
}

TEST(DelayModelTest, Table1ExactColumn)
{
    // Flow: Latency(pred).
    EXPECT_EQ(dependenceDelay(DepKind::kFlow, 4, 1, DelayMode::kExact), 4);
    // Anti: 1 - Latency(succ); may be negative.
    EXPECT_EQ(dependenceDelay(DepKind::kAnti, 7, 4, DelayMode::kExact), -3);
    // Output: 1 + Latency(pred) - Latency(succ).
    EXPECT_EQ(dependenceDelay(DepKind::kOutput, 4, 2, DelayMode::kExact), 3);
    EXPECT_EQ(dependenceDelay(DepKind::kOutput, 1, 5, DelayMode::kExact),
              -3);
    // Control follows the flow rule.
    EXPECT_EQ(dependenceDelay(DepKind::kControl, 2, 9, DelayMode::kExact),
              2);
}

TEST(DelayModelTest, Table1ConservativeColumn)
{
    EXPECT_EQ(
        dependenceDelay(DepKind::kFlow, 4, 1, DelayMode::kConservative), 4);
    EXPECT_EQ(
        dependenceDelay(DepKind::kAnti, 7, 4, DelayMode::kConservative), 0);
    EXPECT_EQ(
        dependenceDelay(DepKind::kOutput, 4, 2, DelayMode::kConservative),
        4);
}

class GraphBuilderTest : public ::testing::Test
{
  protected:
    machine::MachineModel machine_ = machine::cydra5();
};

TEST_F(GraphBuilderTest, FlowEdgesCarryOperandDistance)
{
    const auto w = workloads::kernelByName("dot_bs4");
    const auto g = graph::buildDepGraph(w.loop, machine_);
    // Find the accumulator self-edge: s = add s[4], t.
    bool found = false;
    for (const auto& edge : g.edges()) {
        if (edge.kind == DepKind::kFlow && edge.from == edge.to &&
            edge.distance == 4) {
            found = true;
            EXPECT_EQ(edge.delay, machine_.latency(Opcode::kAdd));
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(GraphBuilderTest, StartAndStopConnectEveryOp)
{
    const auto w = workloads::kernelByName("daxpy");
    const auto g = graph::buildDepGraph(w.loop, machine_);
    for (int op = 0; op < g.numOps(); ++op) {
        EXPECT_NE(findEdge(g, g.start(), op, DepKind::kPseudo), nullptr);
        const auto* stop_edge = findEdge(g, op, g.stop(), DepKind::kPseudo);
        ASSERT_NE(stop_edge, nullptr);
        EXPECT_EQ(stop_edge->delay,
                  machine_.latency(w.loop.operation(op).opcode));
    }
    EXPECT_EQ(g.numEdges() - g.numRealEdges(), 2 * g.numOps());
}

TEST_F(GraphBuilderTest, MemoryFlowDependenceAcrossIterations)
{
    // mem_recurrence stores A[i] and loads A[i-1]: flow distance 1.
    const auto w = workloads::kernelByName("mem_recurrence");
    const auto g = graph::buildDepGraph(w.loop, machine_);
    int store_id = -1, load_prev = -1;
    for (const auto& op : w.loop.operations()) {
        if (op.isStore())
            store_id = op.id;
        if (op.isLoad() && op.memRef->offset == -1)
            load_prev = op.id;
    }
    ASSERT_GE(store_id, 0);
    ASSERT_GE(load_prev, 0);
    const auto* edge = findEdge(g, store_id, load_prev, DepKind::kFlow);
    ASSERT_NE(edge, nullptr);
    EXPECT_TRUE(edge->throughMemory);
    EXPECT_EQ(edge->distance, 1);
    EXPECT_EQ(edge->delay, machine_.latency(Opcode::kStore));
}

TEST_F(GraphBuilderTest, SameIterationMemoryAntiDependence)
{
    // daxpy loads Y[i] then stores Y[i]: anti, distance 0.
    const auto w = workloads::kernelByName("daxpy");
    const auto g = graph::buildDepGraph(w.loop, machine_);
    int load_y = -1, store_y = -1;
    for (const auto& op : w.loop.operations()) {
        if (op.isLoad() && w.loop.arrays()[op.memRef->array].name == "Y")
            load_y = op.id;
        if (op.isStore())
            store_y = op.id;
    }
    const auto* anti = findEdge(g, load_y, store_y, DepKind::kAnti);
    ASSERT_NE(anti, nullptr);
    EXPECT_EQ(anti->distance, 0);
    // Exact anti delay: 1 - Latency(store) = 0.
    EXPECT_EQ(anti->delay, 0);
    // And the store->load flow dependence into the NEXT iterations does
    // not exist (offsets equal): instead there is a distance... store Y[i]
    // vs load Y[i] in a later iteration never overlaps (same offset), so
    // no flow edge from store to load.
    EXPECT_EQ(findEdge(g, store_y, load_y, DepKind::kFlow), nullptr);
}

TEST_F(GraphBuilderTest, StridedAccessesThatNeverMeetGetNoEdge)
{
    // iccg_like loads X[2i] and X[2i+1]: offset difference 1 is not
    // divisible by stride 2, so no dependence with the store to V.
    ir::LoopBuilder b("stride_test");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("e", "X", 0, b.reg("ax"), "", 2);
    b.store("X", 1, b.reg("ax"), b.reg("e"), "", 2);
    b.closeLoopBackSubstituted();
    const auto loop = b.build();
    const auto g = graph::buildDepGraph(loop, machine_);
    // Load reads X[2i], store writes X[2i+1]: never alias.
    EXPECT_EQ(findEdge(g, 1, 2, DepKind::kAnti), nullptr);
    EXPECT_EQ(findEdge(g, 2, 1, DepKind::kFlow), nullptr);
}

TEST_F(GraphBuilderTest, StridedDivisibleOffsetsGetScaledDistance)
{
    ir::LoopBuilder b("stride_dep");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("v", "X", -4, b.reg("ax"), "", 2); // reads X[2i-4] = X[2(i-2)]
    b.store("X", 0, b.reg("ax"), b.reg("v"), "", 2);
    b.closeLoopBackSubstituted();
    const auto loop = b.build();
    const auto g = graph::buildDepGraph(loop, machine_);
    const auto* edge = findEdge(g, 2, 1, DepKind::kFlow);
    ASSERT_NE(edge, nullptr);
    EXPECT_EQ(edge->distance, 2); // (0 - (-4)) / 2
}

TEST_F(GraphBuilderTest, MixedStridesFallBackToConservativeEdges)
{
    ir::LoopBuilder b("mixed_stride");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("v", "X", 0, b.reg("ax"), "", 1);
    b.store("X", 0, b.reg("ax"), b.reg("v"), "", 2);
    b.closeLoopBackSubstituted();
    const auto loop = b.build();
    const auto g = graph::buildDepGraph(loop, machine_);
    EXPECT_NE(findEdge(g, 1, 2, DepKind::kAnti), nullptr); // program order
    // Both directions across iterations.
    bool cross = false;
    for (const auto& edge : g.edges())
        cross = cross || (edge.throughMemory && edge.distance == 1);
    EXPECT_TRUE(cross);
}

TEST_F(GraphBuilderTest, GuardEdgesAreControlDependences)
{
    const auto w = workloads::kernelByName("cond_store");
    const auto g = graph::buildDepGraph(w.loop, machine_);
    bool found = false;
    for (const auto& edge : g.edges())
        found = found || edge.kind == DepKind::kControl;
    EXPECT_TRUE(found);
}

TEST_F(GraphBuilderTest, NonDsaModeAddsAntiAndOutputEdges)
{
    const auto w = workloads::kernelByName("raw_counter");
    graph::GraphOptions options;
    options.dsaForm = false;
    const auto g = graph::buildDepGraph(w.loop, machine_, options);
    bool anti = false, output = false;
    for (const auto& edge : g.edges()) {
        anti = anti || edge.kind == DepKind::kAnti;
        output = output || edge.kind == DepKind::kOutput;
    }
    EXPECT_TRUE(anti);
    EXPECT_TRUE(output);
}

TEST_F(GraphBuilderTest, NonDsaModeRejectsLongDistances)
{
    const auto w = workloads::kernelByName("daxpy"); // distance-3 counter
    graph::GraphOptions options;
    options.dsaForm = false;
    EXPECT_THROW(graph::buildDepGraph(w.loop, machine_, options),
                 support::Error);
}

TEST_F(GraphBuilderTest, ConservativeDelaysDifferFromExact)
{
    const auto w = workloads::kernelByName("daxpy");
    graph::GraphOptions exact;
    graph::GraphOptions conservative;
    conservative.delayMode = DelayMode::kConservative;
    const auto ge = graph::buildDepGraph(w.loop, machine_, exact);
    const auto gc = graph::buildDepGraph(w.loop, machine_, conservative);
    // The anti edge (load Y -> store Y) has delay 0 exact, 0 conservative?
    // Exact: 1 - L(store) = 0; conservative: 0. Equal here, so check an
    // output-dependence case instead via the edge sets being same-sized.
    EXPECT_EQ(ge.numEdges(), gc.numEdges());
    // Every conservative delay >= exact delay.
    for (int e = 0; e < ge.numEdges(); ++e)
        EXPECT_GE(gc.edge(e).delay, ge.edge(e).delay);
}

TEST_F(GraphBuilderTest, UnsupportedOpcodeRejected)
{
    machine::MachineBuilder b("no-mul");
    const auto alu = b.addResource("alu");
    b.opcode(Opcode::kAddrSub, 1).simpleAlternative("alu", alu);
    b.opcode(Opcode::kBranch, 1).simpleAlternative("alu", alu);
    const auto m = b.build();

    const auto w = workloads::kernelByName("daxpy");
    try {
        graph::buildDepGraph(w.loop, m);
        FAIL() << "daxpy needs opcodes no-mul lacks";
    } catch (const support::Error& error) {
        EXPECT_STREQ(error.what(),
                     "machine 'no-mul' does not implement opcode aadd");
    }
}

/** One memory dependence: (from, to, kind, distance). */
using MemoryEdge = std::tuple<graph::VertexId, graph::VertexId, DepKind, int>;

/**
 * The memory dependences as the builder found them before it paired
 * accesses within per-array lists: the scan over every (a, b) pair of
 * operations, in operation order.
 */
std::vector<MemoryEdge>
referenceMemoryEdges(const ir::Loop& loop)
{
    std::vector<MemoryEdge> edges;
    for (const auto& a : loop.operations()) {
        for (const auto& b : loop.operations()) {
            if (!a.memRef || !b.memRef ||
                b.memRef->array != a.memRef->array)
                continue;
            if (!a.isStore() && !b.isStore())
                continue;
            const DepKind kind = a.isStore() && !b.isStore() ? DepKind::kFlow
                                 : !a.isStore() && b.isStore()
                                     ? DepKind::kAnti
                                     : DepKind::kOutput;
            const bool before = a.id < b.id;
            if (a.memRef->stride == b.memRef->stride) {
                const std::int64_t diff =
                    std::int64_t{a.memRef->offset} - b.memRef->offset;
                if (diff % a.memRef->stride != 0)
                    continue;
                const std::int64_t distance = diff / a.memRef->stride;
                if (distance > std::numeric_limits<int>::max())
                    continue; // beyond any int trip count
                if (distance > 0 || (distance == 0 && before))
                    edges.emplace_back(a.id, b.id, kind,
                                       static_cast<int>(distance));
            } else {
                if (before)
                    edges.emplace_back(a.id, b.id, kind, 0);
                edges.emplace_back(a.id, b.id, kind, 1);
            }
        }
    }
    return edges;
}

TEST_F(GraphBuilderTest, MemoryPairingMatchesTheAllPairsScan)
{
    auto loops = test_loops::referenceLoops();
    ir::LoopBuilder b("mixed_strides");
    b.recurrence("ax");
    b.op(Opcode::kAddrAdd, "ax", {b.reg("ax", 3), b.imm(24)});
    b.load("v", "X", 0, b.reg("ax"), "", 1);
    b.load("w", "Y", 1, b.reg("ax"), "", 3);
    b.store("X", 0, b.reg("ax"), b.reg("v"), "", 2);
    b.store("Y", 4, b.reg("ax"), b.reg("w"), "", 3);
    b.store("X", 1, b.reg("ax"), b.reg("w"), "", 1);
    b.closeLoopBackSubstituted();
    loops.push_back(b.build());

    // Offsets at the int limits: their difference overflows int.
    loops.push_back(ir::parseLoop("loop extreme\nlivein t\n"
                                  "recurrence ax\nax = aadd ax[1], #8\n"
                                  "xv = load ax @ X -2147483648\n"
                                  "_ = store ax, t @ X 2147483647\n"
                                  "_ = store ax, t @ X -2147483647\n"));

    std::size_t total = 0;
    for (const auto& loop : loops) {
        const auto g = graph::buildDepGraph(loop, machine_);
        std::vector<MemoryEdge> got;
        for (const auto& edge : g.edges()) {
            if (edge.throughMemory)
                got.emplace_back(edge.from, edge.to, edge.kind,
                                 edge.distance);
        }
        ASSERT_EQ(got, referenceMemoryEdges(loop)) << loop.name();
        total += got.size();
    }
    EXPECT_GT(total, 1000u); // the comparison is not vacuous
}

TEST_F(GraphBuilderTest, EdgeDensityIsAFewPerOp)
{
    // The paper measures about three edges per operation (E = 3.0036N).
    // Our IR has no universal predicate input, so expect 1.5-3.5.
    double total_edges = 0, total_ops = 0;
    for (const auto& w : workloads::kernelLibrary()) {
        const auto g = graph::buildDepGraph(w.loop, machine_);
        total_edges += g.numRealEdges();
        total_ops += g.numOps();
    }
    const double density = total_edges / total_ops;
    EXPECT_GT(density, 1.0);
    EXPECT_LT(density, 4.0);
}

// ---------------------------------------------------------------------------
// The CSR view behind outEdges/inEdges/outDeps/inDeps.

graph::DepEdge
edge(graph::VertexId from, graph::VertexId to, int delay, int distance)
{
    graph::DepEdge e;
    e.from = from;
    e.to = to;
    e.delay = delay;
    e.distance = distance;
    return e;
}

std::vector<graph::EdgeId>
ids(std::span<const graph::EdgeId> span)
{
    return {span.begin(), span.end()};
}

/** Every vertex's spans against a scan of the edge list in id order. */
void
expectSpansMatchEdgeList(const graph::DepGraph& g)
{
    for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
        std::vector<graph::EdgeId> out;
        std::vector<graph::EdgeId> in;
        for (graph::EdgeId id = 0; id < g.numEdges(); ++id) {
            if (g.edge(id).from == v)
                out.push_back(id);
            if (g.edge(id).to == v)
                in.push_back(id);
        }
        EXPECT_EQ(ids(g.outEdges(v)), out) << v;
        EXPECT_EQ(ids(g.inEdges(v)), in) << v;
        ASSERT_EQ(g.outDeps(v).size(), out.size()) << v;
        ASSERT_EQ(g.inDeps(v).size(), in.size()) << v;
        for (std::size_t i = 0; i < out.size(); ++i) {
            const graph::DepEdge& e = g.edge(out[i]);
            EXPECT_EQ(g.outDeps(v)[i].other, e.to);
            EXPECT_EQ(g.outDeps(v)[i].delay, e.delay);
            EXPECT_EQ(g.outDeps(v)[i].distance, e.distance);
        }
        for (std::size_t i = 0; i < in.size(); ++i) {
            const graph::DepEdge& e = g.edge(in[i]);
            EXPECT_EQ(g.inDeps(v)[i].other, e.from);
            EXPECT_EQ(g.inDeps(v)[i].delay, e.delay);
            EXPECT_EQ(g.inDeps(v)[i].distance, e.distance);
        }
    }
}

/** Edge ids interleave across vertices, with a self-loop and a parallel
 *  edge, so insertion order differs from any per-vertex grouping. */
graph::DepGraph
interleavedGraph()
{
    graph::DepGraph g(3);
    g.addEdge(edge(0, 1, 1, 0));         // 0
    g.addEdge(edge(2, 1, 2, 0));         // 1
    g.addEdge(edge(0, 2, 3, 1));         // 2
    g.addEdge(edge(1, 1, 4, 1));         // 3: self-loop
    g.addEdge(edge(0, 1, 5, 2));         // 4: parallel to 0
    g.addEdge(edge(g.start(), 2, 0, 0)); // 5
    g.addEdge(edge(1, g.stop(), 6, 0));  // 6
    return g;
}

TEST(DepGraphTest, SpansListEachVertexsEdgesInInsertionOrder)
{
    const graph::DepGraph g = interleavedGraph();
    EXPECT_EQ(ids(g.outEdges(0)), (std::vector<graph::EdgeId>{0, 2, 4}));
    EXPECT_EQ(ids(g.inEdges(1)), (std::vector<graph::EdgeId>{0, 1, 3, 4}));
    EXPECT_EQ(ids(g.inEdges(2)), (std::vector<graph::EdgeId>{2, 5}));
    EXPECT_EQ(ids(g.outEdges(1)), (std::vector<graph::EdgeId>{3, 6}));
    EXPECT_TRUE(g.inEdges(0).empty());
    EXPECT_TRUE(g.outEdges(g.stop()).empty());
    expectSpansMatchEdgeList(g);
    expectSpansMatchEdgeList(
        graph::buildDepGraph(workloads::kernelByName("tridiag").loop,
                             machine::cydra5()));
}

TEST(DepGraphTest, CopiesAndMovesServeTheSameSpans)
{
    const graph::DepGraph original = graph::buildDepGraph(
        workloads::kernelByName("hydro_frag").loop, machine::cydra5());
    const graph::DepGraph copy = original;
    graph::DepGraph assigned(1);
    assigned = original;
    graph::DepGraph source = original;
    const graph::DepGraph moved = std::move(source);
    graph::DepGraph move_assigned(1);
    graph::DepGraph source2 = original;
    move_assigned = std::move(source2);
    const std::vector<const graph::DepGraph*> graphs = {
        &copy, &assigned, &moved, &move_assigned};
    for (const graph::DepGraph* g : graphs) {
        ASSERT_EQ(g->numVertices(), original.numVertices());
        for (graph::VertexId v = 0; v < original.numVertices(); ++v) {
            EXPECT_EQ(ids(g->outEdges(v)), ids(original.outEdges(v)));
            EXPECT_EQ(ids(g->inEdges(v)), ids(original.inEdges(v)));
        }
        expectSpansMatchEdgeList(*g);
    }
}

TEST(DepGraphTest, AddEdgeAfterAQueryShowsUpInTheNextQuery)
{
    graph::DepGraph g = interleavedGraph();
    ASSERT_TRUE(g.inEdges(0).empty()); // builds the view
    const graph::DepGraph before = g;

    const graph::EdgeId added = g.addEdge(edge(2, 0, 7, 3));
    EXPECT_EQ(ids(g.inEdges(0)), (std::vector<graph::EdgeId>{added}));
    EXPECT_EQ(ids(g.outEdges(2)), (std::vector<graph::EdgeId>{1, added}));
    EXPECT_EQ(g.outDeps(2)[1].other, 0);
    EXPECT_EQ(g.outDeps(2)[1].delay, 7);
    EXPECT_EQ(g.inDeps(0)[0].distance, 3);
    expectSpansMatchEdgeList(g);

    // A copy taken before the addEdge keeps its own view; a copy taken
    // while the view is stale builds its own.
    EXPECT_TRUE(before.inEdges(0).empty());
    g.addEdge(edge(1, 0, 1, 1));
    const graph::DepGraph stale_copy = g;
    EXPECT_EQ(stale_copy.inEdges(0).size(), 2u);
    expectSpansMatchEdgeList(stale_copy);
}

} // namespace
