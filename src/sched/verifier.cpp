#include "sched/verifier.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace ims::sched {

std::string
violationKindName(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::kBadIi:
        return "bad_ii";
      case ViolationKind::kShapeMismatch:
        return "shape_mismatch";
      case ViolationKind::kNegativeTime:
        return "negative_time";
      case ViolationKind::kInvalidAlternative:
        return "invalid_alternative";
      case ViolationKind::kDependence:
        return "dependence";
      case ViolationKind::kSelfConflict:
        return "self_conflict";
      case ViolationKind::kResourceConflict:
        return "resource_conflict";
    }
    return "unknown";
}

std::string
Violation::toString() const
{
    std::ostringstream out;
    switch (kind) {
      case ViolationKind::kBadIi:
        out << "II must be at least 1";
        break;
      case ViolationKind::kShapeMismatch:
        out << "schedule arrays do not match the loop size";
        break;
      case ViolationKind::kNegativeTime:
        out << "operation " << op << " scheduled at negative time " << time;
        break;
      case ViolationKind::kInvalidAlternative:
        out << "operation " << op << " has an invalid alternative index";
        break;
      case ViolationKind::kDependence:
        out << "dependence violated: " << other << " -> " << op
            << " (edge " << edge << "): t(" << op << ")=" << time << " < "
            << required;
        break;
      case ViolationKind::kSelfConflict:
        out << "operation " << op
            << " uses an alternative that self-conflicts at this II";
        break;
      case ViolationKind::kResourceConflict:
        out << "resource conflict between operations " << op << " and "
            << other;
        break;
    }
    return out.str();
}

std::vector<Violation>
verifySchedule(const ir::Loop& loop, const machine::MachineModel& machine,
               const graph::DepGraph& graph, const ScheduleResult& schedule)
{
    std::vector<Violation> violations;

    if (schedule.ii < 1) {
        violations.push_back({ViolationKind::kBadIi});
        return violations;
    }
    if (static_cast<int>(schedule.times.size()) != loop.size() ||
        static_cast<int>(schedule.alternatives.size()) != loop.size()) {
        violations.push_back({ViolationKind::kShapeMismatch});
        return violations;
    }

    // Times of all graph vertices: real ops from the schedule; START at 0,
    // STOP at scheduleLength.
    auto time_of = [&](graph::VertexId v) {
        if (v == graph.start())
            return 0;
        if (v == graph.stop())
            return schedule.scheduleLength;
        return schedule.times[v];
    };

    for (int op = 0; op < loop.size(); ++op) {
        if (schedule.times[op] < 0) {
            violations.push_back({ViolationKind::kNegativeTime, op, -1, -1,
                                  schedule.times[op]});
        }
        const auto& info = machine.info(loop.operation(op).opcode);
        if (schedule.alternatives[op] < 0 ||
            schedule.alternatives[op] >=
                static_cast<int>(info.alternatives.size())) {
            violations.push_back(
                {ViolationKind::kInvalidAlternative, op, -1, -1,
                 schedule.times[op]});
            return violations;
        }
    }

    // Dependence constraints.
    for (graph::EdgeId id = 0; id < graph.numEdges(); ++id) {
        const auto& edge = graph.edge(id);
        const std::int64_t earliest =
            static_cast<std::int64_t>(time_of(edge.from)) + edge.delay -
            static_cast<std::int64_t>(schedule.ii) * edge.distance;
        if (time_of(edge.to) < earliest) {
            violations.push_back({ViolationKind::kDependence, edge.to,
                                  edge.from, id, time_of(edge.to),
                                  earliest});
        }
    }

    // Resource constraints, on an owner grid of II rows by resources
    // that is built here from the raw tables, so that the check shares no
    // reservation code with the schedulers it checks. An op whose uses
    // land twice in one cell self-conflicts; one whose uses land on cells
    // of earlier ops conflicts with each owner. Neither is entered in the
    // grid.
    const int resources = machine.numResources();
    std::vector<int> owners(static_cast<std::size_t>(schedule.ii) * resources,
                            -1);
    std::vector<std::size_t> cells;
    std::vector<int> others;
    for (int op = 0; op < loop.size(); ++op) {
        const int time = schedule.times[op];
        cells.clear();
        for (const auto& use : machine.info(loop.operation(op).opcode)
                                   .alternatives[schedule.alternatives[op]]
                                   .table.uses()) {
            std::int64_t row =
                (static_cast<std::int64_t>(time) + use.time) % schedule.ii;
            if (row < 0)
                row += schedule.ii;
            cells.push_back(static_cast<std::size_t>(row) * resources +
                            use.resource);
        }
        std::sort(cells.begin(), cells.end());
        if (std::adjacent_find(cells.begin(), cells.end()) != cells.end()) {
            violations.push_back(
                {ViolationKind::kSelfConflict, op, -1, -1, time});
            continue;
        }
        others.clear();
        for (const std::size_t cell : cells) {
            if (owners[cell] >= 0)
                others.push_back(owners[cell]);
        }
        std::sort(others.begin(), others.end());
        others.erase(std::unique(others.begin(), others.end()), others.end());
        for (const int other : others) {
            violations.push_back(
                {ViolationKind::kResourceConflict, op, other, -1, time});
        }
        if (!others.empty())
            continue;
        for (const std::size_t cell : cells)
            owners[cell] = op;
    }

    return violations;
}

} // namespace ims::sched
