#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <vector>

#include "sched/height_r.hpp"

namespace ims::sched {

namespace {

/**
 * Unbounded (linear) schedule reservation table. Each resource keeps its
 * busy cycles in one sorted vector: a probe is a binary search and a
 * reservation an in-place insertion, so memory follows the reservations
 * made, not the schedule length or the reservation-use times.
 */
class LinearReservationTable
{
  public:
    explicit LinearReservationTable(int num_resources) : busy_(num_resources)
    {
    }

    bool
    conflicts(const machine::ReservationTable& table, int time) const
    {
        for (const auto& use : table.uses()) {
            const std::vector<int>& cycles = busy_[use.resource];
            if (std::binary_search(cycles.begin(), cycles.end(),
                                   time + use.time))
                return true;
        }
        return false;
    }

    void
    reserve(const machine::ReservationTable& table, int time)
    {
        for (const auto& use : table.uses()) {
            std::vector<int>& cycles = busy_[use.resource];
            const int cycle = time + use.time;
            const auto at =
                std::lower_bound(cycles.begin(), cycles.end(), cycle);
            assert(at == cycles.end() || *at != cycle);
            cycles.insert(at, cycle);
        }
    }

  private:
    std::vector<std::vector<int>> busy_;
};

} // namespace

ListScheduleResult
listSchedule(const ir::Loop& loop, const machine::MachineModel& machine,
             const graph::DepGraph& graph, support::Counters* counters,
             support::TelemetrySink* sink)
{
    support::PhaseTimer timer(sink, support::Phase::kListSchedule);
    const auto height = computeAcyclicHeight(graph, counters);

    // Operation scheduling in decreasing height order; distance-0 edges
    // only. Since predecessors always have strictly earlier... no — equal
    // heights are possible, so process in a topological-compatible order:
    // sort by (height desc, id asc) and schedule each op at the first
    // conflict-free slot at or after its Estart over already-placed
    // predecessors. Every predecessor of an op has strictly greater
    // height + delay, hence is placed earlier in this order.
    std::vector<graph::VertexId> order(graph.numVertices());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](graph::VertexId a, graph::VertexId b) {
                  return height[a] != height[b] ? height[a] > height[b]
                                                : a < b;
              });

    std::vector<int> time(graph.numVertices(), 0);
    std::vector<int> alternative(graph.numVertices(), 0);
    std::vector<bool> placed(graph.numVertices(), false);
    LinearReservationTable reservations(machine.numResources());

    for (graph::VertexId v : order) {
        // Estart over placed predecessors (distance-0 edges only).
        int estart = 0;
        for (graph::EdgeId eid : graph.inEdges(v)) {
            const graph::DepEdge& edge = graph.edge(eid);
            if (edge.distance != 0 || !placed[edge.from])
                continue;
            estart = std::max(estart, time[edge.from] + edge.delay);
        }
        if (graph.isPseudo(v)) {
            time[v] = estart;
            placed[v] = true;
            continue;
        }
        const auto& alternatives =
            machine.info(loop.operation(v).opcode).alternatives;
        int t = estart;
        int chosen = -1;
        while (chosen < 0) {
            for (std::size_t alt = 0; alt < alternatives.size(); ++alt) {
                if (!reservations.conflicts(alternatives[alt].table, t)) {
                    chosen = static_cast<int>(alt);
                    break;
                }
            }
            if (chosen < 0)
                ++t;
        }
        reservations.reserve(alternatives[chosen].table, t);
        time[v] = t;
        alternative[v] = chosen;
        placed[v] = true;
    }

    ListScheduleResult result;
    result.times.assign(time.begin(), time.begin() + graph.numOps());
    result.alternatives.assign(alternative.begin(),
                               alternative.begin() + graph.numOps());
    result.scheduleLength = time[graph.stop()];
    return result;
}

} // namespace ims::sched
