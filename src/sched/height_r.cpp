#include "sched/height_r.hpp"

#include <algorithm>
#include <cassert>

#include "support/error.hpp"

namespace ims::sched {

namespace {

constexpr std::int64_t kMinusInf = INT64_MIN / 4;

} // namespace

std::vector<std::int64_t>
computeHeightR(const graph::DepGraph& graph, const graph::SccResult& sccs,
               int ii, support::Counters* counters)
{
    std::vector<std::int64_t> height;
    computeHeightRInto(graph, sccs, ii, counters, height);
    return height;
}

void
computeHeightRInto(const graph::DepGraph& graph,
                   const graph::SccResult& sccs, int ii,
                   support::Counters* counters,
                   std::vector<std::int64_t>& height)
{
    height.assign(graph.numVertices(), kMinusInf);
    height[graph.stop()] = 0;

    // Tarjan emits components in reverse topological order (all successors
    // of a component are emitted before it), so one pass over components
    // sees every cross-component successor already finalised.
    for (const auto& component : sccs.components()) {
        const int comp_id = sccs.componentOf(component.front());

        auto relax_vertex = [&](graph::VertexId v, bool internal_only) {
            bool changed = false;
            for (graph::EdgeId eid : graph.outEdges(v)) {
                const graph::DepEdge& edge = graph.edge(eid);
                const bool internal =
                    sccs.componentOf(edge.to) == comp_id;
                if (internal_only && !internal)
                    continue;
                if (!internal_only && internal)
                    continue;
                support::bump(counters,
                              &support::Counters::heightRInnerSteps);
                if (height[edge.to] == kMinusInf)
                    continue;
                const std::int64_t candidate =
                    height[edge.to] + edge.delay -
                    static_cast<std::int64_t>(ii) * edge.distance;
                if (candidate > height[v]) {
                    height[v] = candidate;
                    changed = true;
                }
            }
            return changed;
        };

        // Base values from cross-component successors.
        for (graph::VertexId v : component)
            relax_vertex(v, false);

        // Fixed point over internal edges; at most |C| sweeps suffice when
        // no internal cycle has positive weight.
        const int max_sweeps = static_cast<int>(component.size()) + 1;
        bool changed = true;
        int sweeps = 0;
        while (changed) {
            changed = false;
            for (graph::VertexId v : component)
                changed = relax_vertex(v, true) || changed;
            ++sweeps;
            support::check(sweeps <= max_sweeps,
                           "HeightR diverged: positive-weight dependence "
                           "cycle (II below RecMII?)");
        }
    }
}

std::vector<std::int64_t>
computeAcyclicHeight(const graph::DepGraph& graph,
                     support::Counters* counters)
{
    // Distance-0 edges form a DAG; process vertices in reverse topological
    // order obtained by a DFS post-order.
    const int n = graph.numVertices();
    std::vector<std::int64_t> height(n, kMinusInf);
    std::vector<int> state(n, 0); // 0 unvisited, 1 in progress, 2 done

    // Iterative DFS computing heights bottom-up.
    std::vector<std::pair<graph::VertexId, std::size_t>> stack;
    for (graph::VertexId root = 0; root < n; ++root) {
        if (state[root] != 0)
            continue;
        stack.emplace_back(root, 0);
        state[root] = 1;
        while (!stack.empty()) {
            auto& [v, pos] = stack.back();
            const auto& out = graph.outEdges(v);
            bool descended = false;
            while (pos < out.size()) {
                const graph::DepEdge& edge = graph.edge(out[pos]);
                ++pos;
                if (edge.distance != 0)
                    continue;
                support::check(state[edge.to] != 1,
                               "zero-distance dependence cycle");
                if (state[edge.to] == 0) {
                    state[edge.to] = 1;
                    stack.emplace_back(edge.to, 0);
                    descended = true;
                    break;
                }
            }
            if (descended)
                continue;
            // All children done: finalise v.
            std::int64_t h = v == graph.stop() ? 0 : kMinusInf;
            for (graph::EdgeId eid : graph.outEdges(v)) {
                const graph::DepEdge& edge = graph.edge(eid);
                if (edge.distance != 0)
                    continue;
                support::bump(counters,
                              &support::Counters::heightRInnerSteps);
                if (height[edge.to] == kMinusInf)
                    continue;
                h = std::max(h, height[edge.to] + edge.delay);
            }
            // Vertices that cannot reach STOP over distance-0 edges (none
            // in practice, since every op has a pseudo edge to STOP) keep
            // height 0 as a safe floor.
            height[v] = std::max<std::int64_t>(h, 0);
            state[v] = 2;
            stack.pop_back();
        }
    }
    return height;
}

} // namespace ims::sched
