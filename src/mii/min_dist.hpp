#ifndef IMS_MII_MIN_DIST_HPP
#define IMS_MII_MIN_DIST_HPP

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/dep_graph.hpp"
#include "support/counters.hpp"

namespace ims::mii {

/**
 * The MinDist matrix of §2.2: entry [i][j] is the minimum permissible
 * interval between the schedule time of operation i and operation j of the
 * same iteration, for a given candidate II; -infinity when no dependence
 * path connects them.
 *
 * Initialisation: for every edge e: i -> j,
 *   MinDist[i][j] >= Delay(e) - II * Distance(e),
 * then closure with the O(N^3) all-pairs longest-path (Floyd-Warshall)
 * step. Each pivot k relaxes only the finite cells of row k against the
 * finite cells of column k. A row-major and a column-major bitset record
 * which cells are finite, so a pivot reads both lists from N/64 words
 * each and marks the cells it relaxed in (|rows| + |cols|) * N/64 words;
 * on sparse dependence graphs the closure costs little more than one step
 * per productive (i, k, j), not N^3.
 * A positive diagonal entry means an operation would have to be scheduled
 * after itself: the candidate II is infeasible.
 *
 * The matrix is *reusable across candidate IIs*: construction caches the
 * vertex-subset index and the per-edge (i, j, delay, distance) tuples and
 * sizes the closure's scratch lists, and `recompute(ii)` re-runs
 * initialisation + closure in the existing buffers without touching the
 * graph or allocating. The per-II slack-priority computation and the
 * exact backend call `recompute` once per candidate instead of building a
 * fresh matrix each time.
 */
class MinDistMatrix
{
  public:
    /** Sentinel for "no path". */
    static constexpr std::int64_t kMinusInf =
        std::numeric_limits<std::int64_t>::min() / 4;

    /**
     * Compute over the subgraph induced by `vertices` (edges with both
     * endpoints inside), for candidate initiation interval `ii` (>= 1).
     */
    MinDistMatrix(const graph::DepGraph& graph,
                  std::vector<graph::VertexId> vertices, int ii,
                  support::Counters* counters = nullptr);

    /** Compute over the whole graph including START/STOP. */
    MinDistMatrix(const graph::DepGraph& graph, int ii,
                  support::Counters* counters = nullptr);

    /**
     * Recompute the matrix for a new candidate II, reusing the buffer and
     * the cached edge initialisation (each call counts as one
     * `minDistInvocations`, exactly like constructing afresh would).
     */
    void recompute(int ii, support::Counters* counters = nullptr);

    int size() const { return static_cast<int>(vertices_.size()); }
    int ii() const { return ii_; }

    /** Entry by subset index. */
    std::int64_t
    at(int i, int j) const
    {
        return matrix_[static_cast<std::size_t>(i) * vertices_.size() + j];
    }

    /** Entry by graph vertex id (must be members of the subset). */
    std::int64_t atVertex(graph::VertexId u, graph::VertexId v) const;

    /** Largest diagonal entry (kMinusInf when none is connected). */
    std::int64_t maxDiagonal() const;

    /** True when no diagonal entry is positive (the II is feasible). */
    bool feasible() const { return maxDiagonal() <= 0; }

    /** The vertex subset, in matrix order. */
    const std::vector<graph::VertexId>& vertices() const { return vertices_; }

  private:
    /** One subset-internal edge, pre-resolved to matrix indices. */
    struct EdgeInit
    {
        int i;
        int j;
        int delay;
        int distance;
    };

    std::vector<graph::VertexId> vertices_;
    std::vector<int> indexOf_; // graph vertex -> subset index or -1
    int ii_;
    std::vector<std::int64_t> matrix_;
    std::vector<EdgeInit> edgeInits_; // cached across recomputes
    std::size_t words_;               // 64-bit words per bitset row
    std::vector<std::uint64_t> rowFinite_; // [i]: bit j set iff [i][j] finite
    std::vector<std::uint64_t> colFinite_; // [j]: bit i set iff [i][j] finite
    std::vector<int> finiteRows_;          // closure scratch: pivot column
    std::vector<int> finiteCols_;          // closure scratch: pivot row
};

} // namespace ims::mii

#endif // IMS_MII_MIN_DIST_HPP
