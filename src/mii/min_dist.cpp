#include "mii/min_dist.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace ims::mii {

namespace {

/** Write the indices of the set bits of `bits` to `out`, ascending. */
std::size_t
gatherSetBits(const std::uint64_t* bits, std::size_t words, int* out)
{
    std::size_t count = 0;
    for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
            out[count++] =
                static_cast<int>(w * 64 + std::countr_zero(word));
        }
    }
    return count;
}

/** dst |= src over `words` words. */
void
orBits(std::uint64_t* dst, const std::uint64_t* src, std::size_t words)
{
    for (std::size_t w = 0; w < words; ++w)
        dst[w] |= src[w];
}

} // namespace

MinDistMatrix::MinDistMatrix(const graph::DepGraph& graph,
                             std::vector<graph::VertexId> vertices, int ii,
                             support::Counters* counters)
    : vertices_(std::move(vertices)),
      ii_(ii),
      words_((vertices_.size() + 63) / 64)
{
    assert(ii >= 1);
    indexOf_.assign(graph.numVertices(), -1);
    for (std::size_t i = 0; i < vertices_.size(); ++i) {
        assert(indexOf_[vertices_[i]] == -1 && "duplicate vertex in subset");
        indexOf_[vertices_[i]] = static_cast<int>(i);
    }
    finiteRows_.resize(vertices_.size());
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
    const std::size_t words = words_;
    // Capacity is reused across candidates.
    matrix_.assign(n * n, kMinusInf);
    rowFinite_.assign(n * words, 0);
    colFinite_.assign(n * words, 0);

    // Initialise from the cached subset-internal edges.
    for (const EdgeInit& edge : edgeInits_) {
        const std::int64_t bound =
            static_cast<std::int64_t>(edge.delay) -
            static_cast<std::int64_t>(ii_) * edge.distance;
        auto& cell = matrix_[static_cast<std::size_t>(edge.i) * n + edge.j];
        cell = std::max(cell, bound);
        rowFinite_[edge.i * words + edge.j / 64] |= 1ULL << edge.j % 64;
        colFinite_[edge.j * words + edge.i / 64] |= 1ULL << edge.i % 64;
    }

    // All-pairs longest path closure over finite cells only. During pivot
    // k a cell [k][j] or [i][k] is only ever raised from a finite value
    // (its update adds [k][k] to itself), so which cells of row k and
    // column k are finite cannot change within the pivot: gather row k's
    // finite columns and column k's finite rows once, from the bitsets,
    // then relax just those cells. The i-then-j order and the fresh read
    // of [k][j] are the plain triple loop's, so every entry, a positive
    // diagonal included, is bit-identical to it. Every relaxed cell is
    // finite afterwards: each relaxed row gains row k's bits and each
    // relaxed column column k's. The inner-step counter counts only
    // productive (i, k, j) combinations — both path halves finite — per
    // Table 4's "inner loop executions" (see docs/api.md): per pivot,
    // |finite column k| x |finite row k|.
    for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t* row_bits = &rowFinite_[k * words];
        const std::size_t cols =
            gatherSetBits(row_bits, words, finiteCols_.data());
        if (cols == 0)
            continue;
        const std::uint64_t* col_bits = &colFinite_[k * words];
        const std::size_t rows =
            gatherSetBits(col_bits, words, finiteRows_.data());
        const std::int64_t* row_k = &matrix_[k * n];
        for (std::size_t r = 0; r < rows; ++r) {
            const std::size_t i = static_cast<std::size_t>(finiteRows_[r]);
            std::int64_t* row_i = &matrix_[i * n];
            const std::int64_t ik = row_i[k];
            for (std::size_t c = 0; c < cols; ++c) {
                const int j = finiteCols_[c];
                row_i[j] = std::max(row_i[j], ik + row_k[j]);
            }
        }
        for (std::size_t r = 0; r < rows; ++r)
            orBits(&rowFinite_[finiteRows_[r] * words], row_bits, words);
        for (std::size_t c = 0; c < cols; ++c)
            orBits(&colFinite_[finiteCols_[c] * words], col_bits, words);
        support::bump(counters, &support::Counters::minDistInnerSteps,
                      static_cast<std::uint64_t>(rows) * cols);
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
