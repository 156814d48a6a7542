#include "graph/graph_builder.hpp"

#include <cstdint>
#include <limits>
#include <vector>

#include "support/error.hpp"

namespace ims::graph {

namespace {

/** Call `visit` on each register-read operand of `op`, guard last. */
template <typename Visit>
void
forEachRegisterRead(const ir::Operation& op, Visit&& visit)
{
    for (const auto& src : op.sources) {
        if (src.isRegister())
            visit(src);
    }
    if (op.guard)
        visit(*op.guard);
}

} // namespace

DepGraph
buildDepGraph(const ir::Loop& loop, const machine::MachineModel& machine,
              const GraphOptions& options, support::TelemetrySink* sink)
{
    support::PhaseTimer timer(sink, support::Phase::kGraphBuild);
    loop.validate();
    DepGraph graph(loop.size());

    auto latency = [&](ir::OpId id) {
        return machine.latency(loop.operation(id).opcode);
    };
    auto add_dep = [&](ir::OpId from, ir::OpId to, DepKind kind, int distance,
                       bool through_memory) {
        DepEdge edge;
        edge.from = from;
        edge.to = to;
        edge.kind = kind;
        edge.distance = distance;
        edge.delay = dependenceDelay(kind, latency(from), latency(to),
                                     options.delayMode);
        if (delayFaultForTesting() && kind == DepKind::kFlow &&
            through_memory)
            edge.delay = 0; // injected bug (see setDelayFaultForTesting)
        edge.throughMemory = through_memory;
        graph.addEdge(edge);
    };

    // Collect readers of each register for the non-DSA anti-dependences.
    for (const auto& op : loop.operations()) {
        support::check(machine.supports(op.opcode), [&] {
            return "machine '" + machine.name() +
                   "' does not implement opcode " +
                   ir::opcodeName(op.opcode);
        });
        forEachRegisterRead(op, [&](const ir::Operand& read) {
            const ir::OpId def = loop.definingOp(read.reg);
            if (def < 0)
                return; // pure live-in: no producing operation
            const bool is_control = op.guard && read.reg == op.guard->reg &&
                                    read.distance == op.guard->distance &&
                                    loop.reg(read.reg).isPredicate;
            add_dep(def, op.id,
                    is_control ? DepKind::kControl : DepKind::kFlow,
                    read.distance, false);
        });
    }

    if (!options.dsaForm) {
        support::check(loop.maxDistance() <= 1,
                       "single-register form cannot represent operand "
                       "distances greater than 1");
        for (const auto& op : loop.operations()) {
            if (!op.hasDest())
                continue;
            // Output self-dependence: this iteration's write vs the next's.
            add_dep(op.id, op.id, DepKind::kOutput, 1, false);
        }
        for (const auto& op : loop.operations()) {
            forEachRegisterRead(op, [&](const ir::Operand& read) {
                const ir::OpId def = loop.definingOp(read.reg);
                if (def < 0)
                    return;
                // The read (of the value written `distance` back) must
                // precede the overwriting definition, which occurs
                // 1 - distance iterations later.
                const int anti_distance = 1 - read.distance;
                if (anti_distance >= 0)
                    add_dep(op.id, def, DepKind::kAnti, anti_distance, false);
            });
        }
    }

    // Memory dependences between accesses to the same array. Access A in
    // iteration i touches array[sA*i + oA]; access B in iteration j touches
    // array[sB*j + oB]. With equal strides s they conflict exactly when
    // s*(j - i) == oA - oB, i.e. at a single iteration distance (or never,
    // when s does not divide the offset difference). Mixed strides are
    // handled conservatively with distance-0 and distance-1 edges.
    //
    // One counting sort lists, in id order, each array's accesses in
    // bucket `array` and its stores again in bucket `arrays + array`. A
    // store pairs with every access of its array and a load only with its
    // stores, since load-load pairs never conflict: the pairs an all-pairs
    // scan over the operations would turn into edges, in its order.
    const int arrays = loop.numArrays();
    const auto for_each_bucket = [arrays](const ir::Operation& op,
                                          auto&& visit) {
        visit(op.memRef->array);
        if (op.isStore())
            visit(arrays + op.memRef->array);
    };
    std::vector<int> first(2 * arrays + 1, 0);
    for (const auto& op : loop.operations()) {
        if (op.memRef)
            for_each_bucket(op, [&first](int bucket) { ++first[bucket + 1]; });
    }
    for (int bucket = 0; bucket < 2 * arrays; ++bucket)
        first[bucket + 1] += first[bucket];
    std::vector<ir::OpId> bucketed(first.back());
    {
        std::vector<int> next(first.begin(), first.end() - 1);
        for (const auto& op : loop.operations()) {
            if (op.memRef) {
                for_each_bucket(op, [&](int bucket) {
                    bucketed[next[bucket]++] = op.id;
                });
            }
        }
    }
    for (const auto& a : loop.operations()) {
        if (!a.memRef)
            continue;
        const int partners = (a.isStore() ? 0 : arrays) + a.memRef->array;
        for (int k = first[partners]; k < first[partners + 1]; ++k) {
            const ir::Operation& b = loop.operation(bucketed[k]);
            const bool same_op = a.id == b.id;

            DepKind kind;
            if (a.isStore() && !b.isStore())
                kind = DepKind::kFlow;
            else if (!a.isStore() && b.isStore())
                kind = DepKind::kAnti;
            else
                kind = DepKind::kOutput;

            if (a.memRef->stride == b.memRef->stride) {
                // In 64 bits, as offsets near the int limits overflow int.
                // A distance beyond int is never reached within an int
                // trip count, so it adds no edge.
                const std::int64_t diff =
                    std::int64_t{a.memRef->offset} - b.memRef->offset;
                const int stride = a.memRef->stride;
                if (diff % stride != 0)
                    continue; // access sequences never meet
                const std::int64_t distance = diff / stride;
                const bool valid =
                    (distance > 0 &&
                     distance <= std::numeric_limits<int>::max()) ||
                    (distance == 0 && !same_op && a.id < b.id);
                if (valid) {
                    add_dep(a.id, b.id, kind, static_cast<int>(distance),
                            true);
                }
            } else {
                // Conservative: serialise within the iteration (program
                // order) and across consecutive iterations.
                if (!same_op && a.id < b.id)
                    add_dep(a.id, b.id, kind, 0, true);
                add_dep(a.id, b.id, kind, 1, true);
            }
        }
    }

    // Early exits (WHILE-loops / loops with early exits, §5): stores must
    // never commit for iterations the loop did not reach, so every store
    // is control-dependent on its own iteration's earlier exits
    // (distance 0) and on later-listed exits of the previous iteration
    // (distance 1). Speculative non-store operations are unconstrained
    // ("control dependences may be selectively ignored").
    for (const auto& exit_op : loop.operations()) {
        if (exit_op.opcode != ir::Opcode::kExitIf)
            continue;
        for (const auto& store : loop.operations()) {
            if (!store.isStore())
                continue;
            const int distance = store.id > exit_op.id ? 0 : 1;
            add_dep(exit_op.id, store.id, DepKind::kControl, distance,
                    false);
        }
    }

    // START/STOP pseudo edges (§3.1).
    for (const auto& op : loop.operations()) {
        DepEdge start_edge;
        start_edge.from = graph.start();
        start_edge.to = op.id;
        start_edge.kind = DepKind::kPseudo;
        start_edge.distance = 0;
        start_edge.delay = 0;
        graph.addEdge(start_edge);

        DepEdge stop_edge;
        stop_edge.from = op.id;
        stop_edge.to = graph.stop();
        stop_edge.kind = DepKind::kPseudo;
        stop_edge.distance = 0;
        stop_edge.delay = latency(op.id);
        graph.addEdge(stop_edge);
    }

    graph.buildAdjacency(); // immutable from here on (see the header)
    return graph;
}

} // namespace ims::graph
