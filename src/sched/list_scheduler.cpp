#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <numeric>
#include <vector>

#include "sched/height_r.hpp"
#include "sched/time_bound.hpp"

namespace ims::sched {

namespace {

/**
 * Unbounded (linear) schedule reservation table. Each resource keeps its
 * busy cycles as sorted, disjoint runs [begin, end) that merge on insert,
 * so memory follows the reservations made, not the schedule length or
 * the reservation-use times, and a saturated resource is one run.
 */
class LinearReservationTable
{
  public:
    explicit LinearReservationTable(int num_resources) : busy_(num_resources)
    {
    }

    /**
     * Earliest time >= `start` at which `table` fits. A use whose cycle
     * falls in a busy run cannot fit at any time that keeps it inside
     * the run, so the candidate jumps past the run's end and every use
     * is checked again from the first: one binary search per jump, not
     * one per cycle.
     */
    int
    earliestFit(const machine::ReservationTable& table, int start) const
    {
        int time = start;
        const auto& uses = table.uses();
        for (std::size_t u = 0; u < uses.size();) {
            const int cycle = time + uses[u].time;
            const auto run = covering(busy_[uses[u].resource], cycle);
            if (run == nullptr) {
                ++u;
            } else {
                time = run->end - uses[u].time;
                u = 0;
            }
        }
        return time;
    }

    void
    reserve(const machine::ReservationTable& table, int time)
    {
        for (const auto& use : table.uses()) {
            std::vector<Run>& runs = busy_[use.resource];
            const int cycle = time + use.time;
            const auto next = firstAfter(runs, cycle);
            assert(next == runs.begin() || std::prev(next)->end <= cycle);
            const bool joins_prev =
                next != runs.begin() && std::prev(next)->end == cycle;
            const bool joins_next =
                next != runs.end() && next->begin == cycle + 1;
            if (joins_prev && joins_next) {
                std::prev(next)->end = next->end;
                runs.erase(next);
            } else if (joins_prev) {
                std::prev(next)->end = cycle + 1;
            } else if (joins_next) {
                next->begin = cycle;
            } else {
                runs.insert(next, {cycle, cycle + 1});
            }
        }
    }

  private:
    struct Run
    {
        int begin;
        int end;
    };

    /** The first run that begins after `cycle`. */
    template <typename Runs>
    static auto
    firstAfter(Runs& runs, int cycle) -> decltype(runs.begin())
    {
        return std::upper_bound(
            runs.begin(), runs.end(), cycle,
            [](int c, const Run& run) { return c < run.begin; });
    }

    /** The run holding `cycle`, or nullptr when the cycle is free. */
    static const Run*
    covering(const std::vector<Run>& runs, int cycle)
    {
        const auto next = firstAfter(runs, cycle);
        if (next == runs.begin() || std::prev(next)->end <= cycle)
            return nullptr;
        return &*std::prev(next);
    }

    std::vector<std::vector<Run>> busy_;
};

} // namespace

ListScheduleResult
listSchedule(const ir::Loop& loop, const machine::MachineModel& machine,
             const graph::DepGraph& graph, support::Counters* counters,
             support::TelemetrySink* sink)
{
    support::PhaseTimer timer(sink, support::Phase::kListSchedule);
    TimeBound(loop, machine, graph, 0).check(1);
    const auto height = computeAcyclicHeight(graph, counters);

    // Operation scheduling in decreasing height order; distance-0 edges
    // only. Since predecessors always have strictly earlier... no — equal
    // heights are possible, so process in a topological-compatible order:
    // sort by (height desc, id asc) and schedule each op at the first
    // conflict-free slot at or after its Estart over already-placed
    // predecessors, the lowest-index alternative that fits there. Every
    // predecessor of an op has strictly greater height + delay, hence is
    // placed earlier in this order.
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
        // The smallest earliest fit, the lowest alternative on a tie: the
        // (t, alternative) a cycle-by-cycle walk from Estart would find.
        const auto& alternatives =
            machine.info(loop.operation(v).opcode).alternatives;
        int t = 0;
        int chosen = -1;
        for (std::size_t alt = 0; alt < alternatives.size(); ++alt) {
            const int fit =
                reservations.earliestFit(alternatives[alt].table, estart);
            if (chosen < 0 || fit < t) {
                t = fit;
                chosen = static_cast<int>(alt);
            }
            if (t == estart)
                break; // no later alternative can start earlier
        }
        assert(chosen >= 0);
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
