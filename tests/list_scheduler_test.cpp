#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "graph/graph_builder.hpp"
#include "ir/parser.hpp"
#include "machine/cydra5.hpp"
#include "machine/machine_io.hpp"
#include "machine/machines.hpp"
#include "reference_loops.hpp"
#include "sched/height_r.hpp"
#include "sched/list_scheduler.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;

/** Check the acyclic (distance-0) constraints and resource legality. */
void
checkListSchedule(const ir::Loop& loop,
                  const machine::MachineModel& machine,
                  const graph::DepGraph& graph,
                  const sched::ListScheduleResult& result)
{
    for (const auto& edge : graph.edges()) {
        if (edge.distance != 0 || graph.isPseudo(edge.from) ||
            graph.isPseudo(edge.to)) {
            continue;
        }
        EXPECT_GE(result.times[edge.to],
                  result.times[edge.from] + edge.delay)
            << "edge " << edge.from << "->" << edge.to;
    }
    // No (time, resource) cell used twice.
    std::set<std::pair<int, int>> cells;
    for (int op = 0; op < loop.size(); ++op) {
        const auto& table = machine.info(loop.operation(op).opcode)
                                .alternatives[result.alternatives[op]]
                                .table;
        for (const auto& use : table.uses()) {
            EXPECT_TRUE(cells.insert({result.times[op] + use.time,
                                      use.resource})
                            .second)
                << "double booking by op " << op;
        }
    }
}

TEST(ListSchedulerTest, AllKernelsProduceLegalAcyclicSchedules)
{
    const auto machine = machine::cydra5();
    for (const auto& w : workloads::kernelLibrary()) {
        const auto graph = graph::buildDepGraph(w.loop, machine);
        const auto result = sched::listSchedule(w.loop, machine, graph);
        checkListSchedule(w.loop, machine, graph, result);
    }
}

TEST(ListSchedulerTest, LengthAtLeastCriticalPath)
{
    const auto machine = machine::cydra5();
    const auto w = workloads::kernelByName("long_chain");
    const auto graph = graph::buildDepGraph(w.loop, machine);
    const auto result = sched::listSchedule(w.loop, machine, graph);
    // long_chain: load(20) + 10 chained adds (4 each) + store(1) = 65? The
    // chain starts after the address add (3).
    EXPECT_GE(result.scheduleLength, 3 + 20 + 10 * 4 + 1);
}

TEST(ListSchedulerTest, StopTimeCoversEveryCompletion)
{
    const auto machine = machine::cydra5();
    for (const char* name : {"daxpy", "fat_loop", "wide_tree"}) {
        const auto w = workloads::kernelByName(name);
        const auto graph = graph::buildDepGraph(w.loop, machine);
        const auto result = sched::listSchedule(w.loop, machine, graph);
        for (int op = 0; op < w.loop.size(); ++op) {
            EXPECT_GE(result.scheduleLength,
                      result.times[op] +
                          machine.latency(w.loop.operation(op).opcode))
                << name;
        }
    }
}

TEST(ListSchedulerTest, WiderMachineNeverLengthensSchedule)
{
    // wideVliw has strictly more resources and lower latencies than the
    // clean64 machine, so the list schedule cannot get longer.
    const auto narrow = machine::clean64();
    const auto wide = machine::wideVliw();
    for (const char* name : {"daxpy", "fat_loop", "hydro_frag"}) {
        const auto w = workloads::kernelByName(name);
        const auto g_narrow = graph::buildDepGraph(w.loop, narrow);
        const auto g_wide = graph::buildDepGraph(w.loop, wide);
        EXPECT_LE(
            sched::listSchedule(w.loop, wide, g_wide).scheduleLength,
            sched::listSchedule(w.loop, narrow, g_narrow).scheduleLength)
            << name;
    }
}

TEST(ListSchedulerTest, IndependentOpsPackUpToResourceLimit)
{
    // multi_array on the wide machine: 4 loads can issue in one cycle on
    // the 4 ports.
    const auto machine = machine::wideVliw();
    const auto w = workloads::kernelByName("multi_array");
    const auto graph = graph::buildDepGraph(w.loop, machine);
    const auto result = sched::listSchedule(w.loop, machine, graph);
    std::map<int, int> loads_at;
    for (int op = 0; op < w.loop.size(); ++op) {
        if (w.loop.operation(op).isLoad())
            ++loads_at[result.times[op]];
    }
    int peak = 0;
    for (const auto& [t, n] : loads_at)
        peak = std::max(peak, n);
    EXPECT_GE(peak, 2); // must exploit some parallelism
}

/**
 * The list scheduler with the plainest table: the same height order and
 * Estart, a cycle-by-cycle walk from Estart trying the alternatives in
 * index order, and every reserved (cycle, resource) cell in one std::set.
 */
sched::ListScheduleResult
referenceListSchedule(const ir::Loop& loop,
                      const machine::MachineModel& machine,
                      const graph::DepGraph& graph)
{
    const auto height = sched::computeAcyclicHeight(graph, nullptr);
    std::vector<graph::VertexId> order(graph.numVertices());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](graph::VertexId a, graph::VertexId b) {
                  return height[a] != height[b] ? height[a] > height[b]
                                                : a < b;
              });

    std::set<std::pair<int, machine::ResourceId>> cells;
    const auto conflicts = [&](const machine::ReservationTable& table,
                               int time) {
        for (const auto& use : table.uses()) {
            if (cells.count({time + use.time, use.resource}) != 0)
                return true;
        }
        return false;
    };

    std::vector<int> time(graph.numVertices(), 0);
    std::vector<int> alternative(graph.numVertices(), 0);
    std::vector<bool> placed(graph.numVertices(), false);
    for (const graph::VertexId v : order) {
        int estart = 0;
        for (const graph::EdgeId eid : graph.inEdges(v)) {
            const graph::DepEdge& edge = graph.edge(eid);
            if (edge.distance == 0 && placed[edge.from])
                estart = std::max(estart, time[edge.from] + edge.delay);
        }
        placed[v] = true;
        time[v] = estart;
        if (graph.isPseudo(v))
            continue;
        const auto& alternatives =
            machine.info(loop.operation(v).opcode).alternatives;
        int chosen = -1;
        for (int t = estart; chosen < 0; ++t) {
            for (std::size_t alt = 0; alt < alternatives.size(); ++alt) {
                if (!conflicts(alternatives[alt].table, t)) {
                    chosen = static_cast<int>(alt);
                    time[v] = t;
                    break;
                }
            }
        }
        for (const auto& use : alternatives[chosen].table.uses())
            cells.insert({time[v] + use.time, use.resource});
        alternative[v] = chosen;
    }

    sched::ListScheduleResult result;
    result.times.assign(time.begin(), time.begin() + graph.numOps());
    result.alternatives.assign(alternative.begin(),
                               alternative.begin() + graph.numOps());
    result.scheduleLength = time[graph.stop()];
    return result;
}

/**
 * listSchedule's result, after checking that it equals the reference's
 * field by field.
 */
sched::ListScheduleResult
matchingReference(const ir::Loop& loop, const machine::MachineModel& machine)
{
    const auto graph = graph::buildDepGraph(loop, machine);
    const auto got = sched::listSchedule(loop, machine, graph);
    const auto want = referenceListSchedule(loop, machine, graph);
    EXPECT_EQ(got.times, want.times)
        << loop.name() << " on " << machine.name();
    EXPECT_EQ(got.alternatives, want.alternatives)
        << loop.name() << " on " << machine.name();
    EXPECT_EQ(got.scheduleLength, want.scheduleLength)
        << loop.name() << " on " << machine.name();
    return got;
}

/**
 * A hand-built machine for the busy-run table's corner cases: `mul`'s
 * alternative 1 (`fast`, on y) can start before alternative 0 (`slow`,
 * three cycles of x); `div` holds d for four cycles, one run per op;
 * `sub` uses d one cycle in and x two cycles in, so a jump past a d run
 * lands its x use elsewhere; `max` holds x for three cycles, so a jump
 * on its second use can move its first into a busy run.
 */
constexpr const char* kRunsMachine = "machine runs\n"
                                     "resource x\n"
                                     "resource y\n"
                                     "resource d\n"
                                     "opcode add 3\n"
                                     "alt a 0:x\n"
                                     "opcode mul 1\n"
                                     "alt slow 0:x 1:x 2:x\n"
                                     "alt fast 0:y\n"
                                     "opcode div 4\n"
                                     "alt d 0:d 1:d 2:d 3:d\n"
                                     "opcode sub 1\n"
                                     "alt s 1:d 2:x\n"
                                     "opcode max 1\n"
                                     "alt b 0:x 1:x 2:x\n";

/**
 * The adds take x at cycles 0-2, so the mul's `slow` fits at 3 but `fast`
 * at 0: the op takes the smallest start, not the first alternative that
 * fits somewhere.
 */
ir::Loop
altFitsEarlier()
{
    return ir::parseLoop("loop alt_fits_earlier\n"
                         "livein a\n"
                         "b = add a, a\n"
                         "c = add a, a\n"
                         "d = add a, a\n"
                         "e = mul a, a\n");
}

/**
 * q and r leave d busy at 0-3 and 7-10; the subs fill the gap and merge
 * the runs; `p` (max) at 0 finds x busy, jumps to 3 for its first use,
 * then past the run at 4-7 for its second, which puts its first use on
 * busy cycle 7 and needs one more jump, to 8.
 */
ir::Loop
blockRuns()
{
    return ir::parseLoop("loop block_runs\n"
                         "livein a\n"
                         "q = div a, a\n"
                         "g = add q, a\n"
                         "r = div g, a\n"
                         "s = sub a, a\n"
                         "t = sub a, a\n"
                         "w = sub a, a\n"
                         "m = mul a, a\n"
                         "n = mul a, a\n"
                         "p = max a, a\n");
}

TEST(ListSchedulerTest, MatchesTheSetTableReference)
{
    const auto loops = test_loops::referenceLoops();
    for (const auto& machine : test_loops::stockMachines()) {
        for (const auto& loop : loops)
            matchingReference(loop, machine);
    }
    const auto runs = machine::parseMachine(kRunsMachine);
    const auto alt = matchingReference(altFitsEarlier(), runs);
    EXPECT_EQ(alt.times[3], 0);
    EXPECT_EQ(alt.alternatives[3], 1);
    EXPECT_EQ(matchingReference(blockRuns(), runs).times,
              (std::vector<int>{0, 4, 7, 3, 4, 5, 0, 0, 8}));
}

} // namespace
