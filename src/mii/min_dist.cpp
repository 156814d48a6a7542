#include "mii/min_dist.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace ims::mii {

MinDistMatrix::MinDistMatrix(const graph::DepGraph& graph,
                             std::vector<graph::VertexId> vertices, int ii,
                             support::Counters* counters)
    : vertices_(std::move(vertices)), ii_(ii)
{
    assert(ii >= 1);
    indexOf_.assign(graph.numVertices(), -1);
    for (std::size_t i = 0; i < vertices_.size(); ++i) {
        assert(indexOf_[vertices_[i]] == -1 && "duplicate vertex in subset");
        indexOf_[vertices_[i]] = static_cast<int>(i);
    }
    finiteCols_.resize(vertices_.size());

    // Cache the subset-internal edges once; recompute() never needs the
    // graph again.
    for (std::size_t i = 0; i < vertices_.size(); ++i) {
        for (graph::EdgeId eid : graph.outEdges(vertices_[i])) {
            const graph::DepEdge& edge = graph.edge(eid);
            const int j = indexOf_[edge.to];
            if (j < 0)
                continue;
            edgeInits_.push_back({static_cast<int>(i), j, edge.delay,
                                  edge.distance});
        }
    }

    recompute(ii, counters);
}

MinDistMatrix::MinDistMatrix(const graph::DepGraph& graph, int ii,
                             support::Counters* counters)
    : MinDistMatrix(graph,
                    [&graph] {
                        std::vector<graph::VertexId> all(
                            graph.numVertices());
                        std::iota(all.begin(), all.end(), 0);
                        return all;
                    }(),
                    ii, counters)
{
}

void
MinDistMatrix::recompute(int ii, support::Counters* counters)
{
    assert(ii >= 1);
    ii_ = ii;
    support::bump(counters, &support::Counters::minDistInvocations);
    const std::size_t n = vertices_.size();
    matrix_.assign(n * n, kMinusInf); // capacity reused across candidates

    // Initialise from the cached subset-internal edges.
    for (const EdgeInit& edge : edgeInits_) {
        const std::int64_t bound =
            static_cast<std::int64_t>(edge.delay) -
            static_cast<std::int64_t>(ii_) * edge.distance;
        auto& cell = matrix_[static_cast<std::size_t>(edge.i) * n + edge.j];
        cell = std::max(cell, bound);
    }

    // All-pairs longest path closure over finite cells only. During pivot
    // k a cell [k][j] or [i][k] is only ever raised from a finite value
    // (its update adds [k][k] to itself), so which cells of row k and
    // column k are finite cannot change within the pivot: gather row k's
    // finite columns once, then relax just those in every row with a
    // finite [i][k]. The i-then-j order and the fresh read of [k][j] are
    // the plain triple loop's, so every entry, a positive diagonal
    // included, is bit-identical to it. The inner-step counter counts
    // only productive (i, k, j) combinations — both path halves finite —
    // per Table 4's "inner loop executions" (see docs/api.md): per pivot,
    // |finite column k| x |finite row k|.
    for (std::size_t k = 0; k < n; ++k) {
        const std::int64_t* row_k = &matrix_[k * n];
        std::size_t cols = 0;
        for (std::size_t j = 0; j < n; ++j) {
            if (row_k[j] != kMinusInf)
                finiteCols_[cols++] = static_cast<int>(j);
        }
        if (cols == 0)
            continue;
        std::uint64_t rows = 0;
        for (std::size_t i = 0; i < n; ++i) {
            std::int64_t* row_i = &matrix_[i * n];
            const std::int64_t ik = row_i[k];
            if (ik == kMinusInf)
                continue;
            ++rows;
            for (std::size_t c = 0; c < cols; ++c) {
                const int j = finiteCols_[c];
                row_i[j] = std::max(row_i[j], ik + row_k[j]);
            }
        }
        support::bump(counters, &support::Counters::minDistInnerSteps,
                      rows * cols);
    }
}

std::int64_t
MinDistMatrix::atVertex(graph::VertexId u, graph::VertexId v) const
{
    const int i = indexOf_[u];
    const int j = indexOf_[v];
    assert(i >= 0 && j >= 0 && "vertex not part of this MinDist subset");
    return at(i, j);
}

std::int64_t
MinDistMatrix::maxDiagonal() const
{
    std::int64_t best = kMinusInf;
    for (int i = 0; i < size(); ++i)
        best = std::max(best, at(i, i));
    return best;
}

} // namespace ims::mii
