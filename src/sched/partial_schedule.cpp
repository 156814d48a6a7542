#include "sched/partial_schedule.hpp"

#include <cassert>

namespace ims::sched {

PartialSchedule::PartialSchedule(const graph::DepGraph& graph,
                                 const ir::Loop& loop,
                                 const machine::MachineModel& machine,
                                 int ii)
    : graph_(graph),
      ii_(ii),
      mrt_(ii, machine.numResources()),
      compiledByOpcode_(ir::kNumOpcodes),
      compiled_(graph.numVertices()),
      arena_(static_cast<std::size_t>(graph.numVertices()) * 4, 0)
{
    assert(loop.size() == graph.numOps());
    const std::size_t vertices =
        static_cast<std::size_t>(graph.numVertices());
    time_ = arena_.data();
    prevTime_ = arena_.data() + vertices;
    alternative_ = arena_.data() + 2 * vertices;
    flags_ = arena_.data() + 3 * vertices;

    // START and STOP reserve nothing: both take kStart's one empty table.
    const int resources = machine.numResources();
    compiledByOpcode_[static_cast<std::size_t>(ir::Opcode::kStart)]
        .emplace_back(machine::ReservationTable{}, ii, resources);
    for (graph::VertexId v = 0; v < graph.numVertices(); ++v) {
        const ir::Opcode opcode = graph.isPseudo(v)
                                      ? ir::Opcode::kStart
                                      : loop.operation(v).opcode;
        auto& compiled =
            compiledByOpcode_[static_cast<std::size_t>(opcode)];
        if (compiled.empty()) {
            const auto& alternatives = machine.info(opcode).alternatives;
            compiled.reserve(alternatives.size());
            for (const auto& alternative : alternatives)
                compiled.emplace_back(alternative.table, ii, resources);
        }
        compiled_[v] = &compiled;
    }
}

int
PartialSchedule::fittingAlternative(graph::VertexId v, int time) const
{
    const auto& compiled = *compiled_[v];
    for (std::size_t alt = 0; alt < compiled.size(); ++alt) {
        if (compiled[alt].selfConflicts())
            continue;
        if (!mrt_.conflicts(compiled[alt], time))
            return static_cast<int>(alt);
    }
    return -1;
}

void
PartialSchedule::place(graph::VertexId v, int time, int alternative)
{
    assert(!isScheduled(v));
    mrt_.reserve(v, (*compiled_[v])[alternative], time);
    flags_[v] = kScheduled | kEverScheduled;
    time_[v] = time;
    prevTime_[v] = time;
    alternative_[v] = alternative;
    ++numScheduled_;
}

void
PartialSchedule::remove(graph::VertexId v)
{
    assert(isScheduled(v));
    mrt_.release(v, (*compiled_[v])[alternative_[v]], time_[v]);
    flags_[v] &= ~kScheduled;
    --numScheduled_;
}

bool
PartialSchedule::allVerticesPlaceable() const
{
    for (graph::VertexId v = 0; v < graph_.numVertices(); ++v) {
        bool placeable = false;
        for (const auto& alt : *compiled_[v])
            placeable = placeable || !alt.selfConflicts();
        if (!placeable)
            return false;
    }
    return true;
}

} // namespace ims::sched
