#ifndef IMS_GRAPH_DEP_GRAPH_HPP
#define IMS_GRAPH_DEP_GRAPH_HPP

#include <cstdint>
#include <span>
#include <vector>

namespace ims::graph {

/** Vertex index inside a DepGraph (real ops first, then START, STOP). */
using VertexId = int;
/** Edge index inside a DepGraph. */
using EdgeId = int;

/**
 * Dependence classification per §2.2 / Table 1 of the paper. Memory
 * dependences reuse the same three data-dependence kinds; `kControl` covers
 * predicate-based control dependence after IF-conversion, and `kPseudo`
 * marks the START/STOP bookkeeping edges.
 */
enum class DepKind
{
    kFlow,
    kAnti,
    kOutput,
    kControl,
    kPseudo,
};

/**
 * A dependence edge: the successor may not start earlier than
 * `delay` cycles after the predecessor starts, where the two operations
 * are `distance` iterations apart (§2.2: "the distance of a dependence is
 * the number of iterations separating the two operations involved").
 *
 * Under an initiation interval II the scheduling constraint is
 *   SchedTime(to) >= SchedTime(from) + delay - II * distance.
 */
struct DepEdge
{
    VertexId from = 0;
    VertexId to = 0;
    DepKind kind = DepKind::kFlow;
    int distance = 0;
    int delay = 0;
    /** True when the dependence is carried through memory. */
    bool throughMemory = false;
};

/**
 * Compact adjacency record for the scheduler hot paths: the neighbor
 * plus the two edge fields the scheduling constraint needs, packed into
 * 12 bytes so one cache line holds five deps. For an out-dep `other` is
 * the edge's head, for an in-dep its tail.
 */
struct Dep
{
    VertexId other = 0;
    std::int32_t delay = 0;
    std::int32_t distance = 0;
};

/**
 * The dependence graph for a loop body, including the START and STOP
 * pseudo-operations that §3.1 adds ("START and STOP are made to be the
 * predecessor and successor, respectively, of all the other operations").
 *
 * Vertices 0..numOps-1 correspond to loop operations by id; vertex
 * `start()` is START and `stop()` is STOP.
 *
 * Adjacency is stored in CSR (compressed sparse row) form: one flat
 * edge-id array per direction plus per-vertex offsets, and a parallel
 * flat array of `Dep` records so the schedulers' inner loops walk
 * contiguous 12-byte entries instead of chasing per-vertex vectors into
 * the edge table. graph::buildDepGraph builds the CSR view before it
 * returns, so the graphs the library hands out are never written again
 * and may be read from any number of threads. A graph assembled edge by
 * edge rebuilds the view lazily on the first query after addEdge; that
 * build writes the graph, so it belongs to the thread that owns it.
 */
class DepGraph
{
  public:
    /** Create a graph over `num_ops` real operations (plus START/STOP). */
    explicit DepGraph(int num_ops);

    int numOps() const { return numOps_; }
    int numVertices() const { return numOps_ + 2; }
    VertexId start() const { return numOps_; }
    VertexId stop() const { return numOps_ + 1; }

    bool
    isPseudo(VertexId v) const
    {
        return v >= numOps_;
    }

    /** Append an edge; returns its id. Not safe against concurrent
        queries — build the graph before sharing it across workers. */
    EdgeId addEdge(DepEdge edge);

    /** Build the CSR view now if an addEdge left it stale (queries
        otherwise build it on first use). */
    void
    buildAdjacency() const
    {
        if (!adjacencyBuilt_)
            rebuildAdjacency();
    }

    const std::vector<DepEdge>& edges() const { return edges_; }
    const DepEdge& edge(EdgeId id) const { return edges_[id]; }
    int numEdges() const { return static_cast<int>(edges_.size()); }

    /** Ids of edges leaving `v`, in insertion order. */
    std::span<const EdgeId>
    outEdges(VertexId v) const
    {
        buildAdjacency();
        return {outIds_.data() + outOffsets_[v],
                outIds_.data() + outOffsets_[v + 1]};
    }

    /** Ids of edges entering `v`, in insertion order. */
    std::span<const EdgeId>
    inEdges(VertexId v) const
    {
        buildAdjacency();
        return {inIds_.data() + inOffsets_[v],
                inIds_.data() + inOffsets_[v + 1]};
    }

    /** Compact records of the edges leaving `v`, aligned with outEdges:
        outDeps(v)[i].other == edge(outEdges(v)[i]).to. */
    std::span<const Dep>
    outDeps(VertexId v) const
    {
        buildAdjacency();
        return {outDeps_.data() + outOffsets_[v],
                outDeps_.data() + outOffsets_[v + 1]};
    }

    /** Compact records of the edges entering `v`, aligned with inEdges:
        inDeps(v)[i].other == edge(inEdges(v)[i]).from. */
    std::span<const Dep>
    inDeps(VertexId v) const
    {
        buildAdjacency();
        return {inDeps_.data() + inOffsets_[v],
                inDeps_.data() + inOffsets_[v + 1]};
    }

    /**
     * Number of non-pseudo edges (the paper's E in the complexity study,
     * which is measured on the loop's dependence graph proper).
     */
    int numRealEdges() const;

  private:
    void rebuildAdjacency() const;

    int numOps_;
    std::vector<DepEdge> edges_;
    /**
     * The CSR view, a cache of edges_. Offsets have numVertices()+1
     * entries; vertex v's slice of the flat arrays is
     * [offsets[v], offsets[v+1]).
     */
    mutable bool adjacencyBuilt_ = false;
    mutable std::vector<std::int32_t> outOffsets_;
    mutable std::vector<std::int32_t> inOffsets_;
    mutable std::vector<EdgeId> outIds_;
    mutable std::vector<EdgeId> inIds_;
    mutable std::vector<Dep> outDeps_;
    mutable std::vector<Dep> inDeps_;
};

} // namespace ims::graph

#endif // IMS_GRAPH_DEP_GRAPH_HPP
