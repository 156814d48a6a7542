#include "sched/feedback_probe.hpp"

#include <algorithm>
#include <cassert>

#include "sched/exact_scheduler.hpp"
#include "sched/mrt.hpp"

namespace ims::sched {

std::vector<graph::VertexId>
collectUnplaceableOps(const ir::Loop& loop,
                      const machine::MachineModel& machine, int ii)
{
    std::vector<graph::VertexId> unplaceable;
    for (const ir::Operation& op : loop.operations()) {
        const auto& alternatives = machine.info(op.opcode).alternatives;
        if (alternatives.empty())
            continue;
        bool all_collide = true;
        for (const auto& alternative : alternatives) {
            if (!ModuloReservationTable::selfConflicts(alternative.table, ii)) {
                all_collide = false;
                break;
            }
        }
        if (all_collide)
            unplaceable.push_back(op.id);
    }
    return unplaceable;
}

/**
 * The materialised induced subproblem. The members own the loop, graph
 * and SCCs the ExactScheduler references, and the whole bundle lives
 * behind a unique_ptr so those references stay stable for the
 * scheduler's lifetime (it reuses buffers across candidate IIs).
 */
struct FeedbackProbe::Subproblem
{
    ir::Loop loop;
    graph::DepGraph graph;
    graph::SccResult sccs;
    ExactScheduler scheduler;

    Subproblem(ir::Loop sub_loop, graph::DepGraph sub_graph,
               const machine::MachineModel& machine)
        : loop(std::move(sub_loop)),
          graph(std::move(sub_graph)),
          sccs(graph::findSccs(graph)),
          scheduler(loop, machine, graph, sccs)
    {
    }
};

FeedbackProbe::FeedbackProbe(const ir::Loop& loop,
                             const machine::MachineModel& machine,
                             const graph::DepGraph& graph,
                             const graph::SccResult& sccs, int subgraph_cap)
    : loop_(loop),
      machine_(machine),
      graph_(graph),
      sccs_(sccs),
      cap_(subgraph_cap),
      inSet_(static_cast<std::size_t>(graph.numVertices()), 0)
{
    assert(cap_ > 0);
}

FeedbackProbe::~FeedbackProbe() = default;

bool
FeedbackProbe::merge(const AttemptFeedback& feedback)
{
    bool changed = false;
    const auto add_single = [&](graph::VertexId v) {
        inSet_[static_cast<std::size_t>(v)] = 1;
        members_.push_back(v);
        changed = true;
    };
    for (graph::VertexId v : feedback.bottleneck(cap_)) {
        if (v < 0 || graph_.isPseudo(v) ||
            inSet_[static_cast<std::size_t>(v)]) {
            continue;
        }
        if (static_cast<int>(members_.size()) >= cap_)
            break;
        // SCC closure when the whole component fits: a recurrence
        // member alone carries none of the cycle's RecMII constraint,
        // so pull in the full cycle whenever the cap allows. Falling
        // back to the lone vertex is still sound (any induced subgraph
        // is), just a weaker certificate.
        const auto& component =
            sccs_.components()[static_cast<std::size_t>(
                sccs_.componentOf(v))];
        int missing = 0;
        for (graph::VertexId m : component) {
            if (!graph_.isPseudo(m) && !inSet_[static_cast<std::size_t>(m)])
                ++missing;
        }
        if (static_cast<int>(members_.size()) + missing <= cap_) {
            for (graph::VertexId m : component) {
                if (!graph_.isPseudo(m) &&
                    !inSet_[static_cast<std::size_t>(m)]) {
                    add_single(m);
                }
            }
        } else {
            add_single(v);
        }
    }
    if (changed)
        std::sort(members_.begin(), members_.end());
    return changed;
}

std::unique_ptr<FeedbackProbe::Subproblem>
FeedbackProbe::buildSubproblem() const
{
    // The sub-loop's job is to map each vertex to its reservation
    // alternatives (and lend names to error messages); registers and
    // operands stay behind — dependences are copied from the real graph
    // below, not rederived.
    ir::Loop sub_loop("bottleneck(" + loop_.name() + ")");
    for (graph::VertexId v : members_) {
        const ir::Operation& original = loop_.operation(v);
        ir::Operation op;
        op.opcode = original.opcode;
        op.comment = "op " + std::to_string(v) + " of " + loop_.name();
        sub_loop.addOperation(op);
    }

    std::vector<int> local(static_cast<std::size_t>(graph_.numVertices()),
                           -1);
    for (std::size_t i = 0; i < members_.size(); ++i)
        local[static_cast<std::size_t>(members_[i])] = static_cast<int>(i);

    graph::DepGraph sub_graph(static_cast<int>(members_.size()));
    for (const graph::DepEdge& edge : graph_.edges()) {
        if (edge.kind == graph::DepKind::kPseudo)
            continue;
        const int from = local[static_cast<std::size_t>(edge.from)];
        const int to = local[static_cast<std::size_t>(edge.to)];
        if (from < 0 || to < 0)
            continue;
        graph::DepEdge copy = edge;
        copy.from = from;
        copy.to = to;
        sub_graph.addEdge(copy);
    }
    // START/STOP bookkeeping edges, mirroring graph::buildDepGraph.
    for (std::size_t i = 0; i < members_.size(); ++i) {
        graph::DepEdge start_edge;
        start_edge.from = sub_graph.start();
        start_edge.to = static_cast<int>(i);
        start_edge.kind = graph::DepKind::kPseudo;
        sub_graph.addEdge(start_edge);

        graph::DepEdge stop_edge;
        stop_edge.from = static_cast<int>(i);
        stop_edge.to = sub_graph.stop();
        stop_edge.kind = graph::DepKind::kPseudo;
        stop_edge.delay =
            machine_.latency(loop_.operation(members_[i]).opcode);
        sub_graph.addEdge(stop_edge);
    }

    return std::make_unique<Subproblem>(std::move(sub_loop),
                                        std::move(sub_graph), machine_);
}

bool
FeedbackProbe::operator()(int ii, const AttemptFeedback& feedback)
{
    if (merge(feedback))
        sub_ = members_.empty() ? nullptr : buildSubproblem();
    if (sub_ == nullptr)
        return false;
    ++probesRun_;
    AttemptStatus status = AttemptStatus::kBudgetExhausted;
    (void)sub_->scheduler.trySchedule(ii, kFeedbackProbeBudget, nullptr,
                                      &status);
    if (status != AttemptStatus::kInfeasible)
        return false; // feasible or budget-exhausted: inconclusive
    ++probesProven_;
    return true;
}

} // namespace ims::sched
