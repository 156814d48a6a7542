#include "graph/dep_graph.hpp"

#include <cassert>

namespace ims::graph {

DepGraph::DepGraph(int num_ops) : numOps_(num_ops)
{
    assert(num_ops >= 0);
}

EdgeId
DepGraph::addEdge(DepEdge edge)
{
    assert(edge.from >= 0 && edge.from < numVertices());
    assert(edge.to >= 0 && edge.to < numVertices());
    assert(edge.distance >= 0);
    const EdgeId id = static_cast<EdgeId>(edges_.size());
    edges_.push_back(edge);
    adjacencyBuilt_ = false;
    return id;
}

void
DepGraph::rebuildAdjacency() const
{
    const int vertices = numVertices();
    const std::size_t num_edges = edges_.size();
    outOffsets_.assign(static_cast<std::size_t>(vertices) + 1, 0);
    inOffsets_.assign(static_cast<std::size_t>(vertices) + 1, 0);
    for (const DepEdge& edge : edges_) {
        ++outOffsets_[edge.from + 1];
        ++inOffsets_[edge.to + 1];
    }
    for (int v = 0; v < vertices; ++v) {
        outOffsets_[v + 1] += outOffsets_[v];
        inOffsets_[v + 1] += inOffsets_[v];
    }

    outIds_.resize(num_edges);
    inIds_.resize(num_edges);
    outDeps_.resize(num_edges);
    inDeps_.resize(num_edges);
    // Filling in edge-id order keeps each vertex's slice in insertion
    // order — the same order the per-vertex push_back lists used to have,
    // which the schedulers' tie-breaks depend on.
    std::vector<std::int32_t> out_cursor(outOffsets_.begin(),
                                         outOffsets_.end() - 1);
    std::vector<std::int32_t> in_cursor(inOffsets_.begin(),
                                        inOffsets_.end() - 1);
    for (std::size_t id = 0; id < num_edges; ++id) {
        const DepEdge& edge = edges_[id];
        const std::int32_t out_at = out_cursor[edge.from]++;
        const std::int32_t in_at = in_cursor[edge.to]++;
        outIds_[out_at] = static_cast<EdgeId>(id);
        inIds_[in_at] = static_cast<EdgeId>(id);
        outDeps_[out_at] = Dep{edge.to, edge.delay, edge.distance};
        inDeps_[in_at] = Dep{edge.from, edge.delay, edge.distance};
    }
    adjacencyBuilt_ = true;
}

int
DepGraph::numRealEdges() const
{
    int count = 0;
    for (const auto& edge : edges_) {
        if (edge.kind != DepKind::kPseudo)
            ++count;
    }
    return count;
}

} // namespace ims::graph
