#ifndef IMS_GRAPH_GRAPH_BUILDER_HPP
#define IMS_GRAPH_GRAPH_BUILDER_HPP

#include "graph/delay_model.hpp"
#include "graph/dep_graph.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"
#include "support/telemetry.hpp"

namespace ims::graph {

/** Options controlling dependence-graph construction. */
struct GraphOptions
{
    /** Table 1 column to use for dependence delays. */
    DelayMode delayMode = DelayMode::kExact;
    /**
     * When true (default) the body is treated as being in dynamic single
     * assignment / EVR form (§2.2): register anti- and output dependences
     * have been eliminated and only flow dependences are generated.
     *
     * When false each virtual register is treated as a single physical
     * register: every definition gains a distance-1 output self-dependence
     * and every reader an anti-dependence on the next definition. Loops
     * whose operand distances exceed 1 cannot be represented this way and
     * are rejected. This mode exists for the Table 1 / ablation studies.
     */
    bool dsaForm = true;
};

/**
 * Build the dependence graph for `loop` on `machine`:
 *
 *  - register flow dependences from each definition to each reader, with
 *    the reader's operand distance and the Table 1 flow delay;
 *  - control dependences from predicate definitions to guarded operations;
 *  - memory dependences between accesses to the same array derived from
 *    their `MemRef` offsets (store->load flow, load->store anti,
 *    store->store output);
 *  - START/STOP pseudo edges: START precedes every operation (delay 0) and
 *    STOP succeeds every operation with delay equal to the operation's
 *    latency, making SchedTime(STOP) the schedule length.
 *
 * The returned graph's CSR view is already built, so the graph is never
 * written again and any number of threads may read it.
 *
 * @throws support::Error if the machine lacks an opcode used by the loop,
 *         or if dsaForm == false and the loop has operand distances > 1.
 *
 * When `sink` is non-null the construction is reported as one
 * Phase::kGraphBuild sample.
 */
DepGraph buildDepGraph(const ir::Loop& loop,
                       const machine::MachineModel& machine,
                       const GraphOptions& options = {},
                       support::TelemetrySink* sink = nullptr);

} // namespace ims::graph

#endif // IMS_GRAPH_GRAPH_BUILDER_HPP
