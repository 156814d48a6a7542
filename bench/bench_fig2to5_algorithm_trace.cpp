/**
 * @file
 * Regenerates the behaviour of Figures 2-5 of the paper as a concrete,
 * runnable trace: procedure ModuloSchedule's II search (Fig. 2), function
 * IterativeSchedule's operation-by-operation loop (Fig. 3), FindTimeSlot's
 * slot selection and forced placements (Fig. 4), and the HeightR / Estart
 * equations (Fig. 5a/5b) evaluated numerically for every operation.
 *
 * Two traces are printed: a vectorizable loop that schedules in a single
 * topological pass (§3.2's "for such loops there is a very good chance of
 * scheduling them in one pass"), and a resource-tight loop where the
 * backtracking — displacement and rescheduling — is visible.
 */
#include <iostream>

#include "common.hpp"
#include "sched/attempt.hpp"
#include "sched/height_r.hpp"
#include "sched/iterative_scheduler.hpp"

namespace {

using namespace ims;
using namespace ims::bench;

void
traceLoop(const char* kernel_name, const machine::MachineModel& machine)
{
    const auto w = workloads::kernelByName(kernel_name);
    const auto g = graph::buildDepGraph(w.loop, machine);
    const auto sccs = graph::findSccs(g);
    const auto mii = mii::computeMii(w.loop, machine, g, sccs);

    std::cout << "\n" << w.loop.toString();
    std::cout << "ResMII = " << mii.resMii << ", MII = " << mii.mii
              << "\n";

    // Figure 5(a): HeightR for every vertex at II = MII.
    const auto heights = sched::computeHeightR(g, sccs, mii.mii);
    std::cout << "HeightR (Fig. 5a) at II=" << mii.mii << ":";
    for (int v = 0; v < g.numOps(); ++v)
        std::cout << "  op" << v << "=" << heights[v];
    std::cout << "  START=" << heights[g.start()]
              << "  STOP=" << heights[g.stop()] << "\n";

    // Figures 2-4: the II search with a per-step trace.
    std::vector<sched::TraceEvent> trace;
    sched::IterativeScheduleOptions inner;
    inner.trace = &trace;
    sched::IterativeScheduler scheduler(w.loop, machine, g, sccs, inner);

    const std::int64_t budget = 6 * (w.loop.size() + 2);
    for (int ii = mii.mii;; ++ii) {
        trace.clear();
        std::cout << "\nIterativeSchedule(II=" << ii << ", Budget="
                  << budget << ")   [Fig. 3]\n";
        const auto result = scheduler.trySchedule(ii, budget).schedule;
        for (const auto& e : trace) {
            std::cout << "  step " << e.step << ": ";
            if (e.op == g.start())
                std::cout << "START";
            else if (e.op == g.stop())
                std::cout << "STOP";
            else
                std::cout << "op" << e.op;
            std::cout << " (HeightR " << e.priority << ") Estart="
                      << e.estart << " window=[" << e.minTime << ","
                      << e.maxTime << "] -> t=" << e.slot << " alt#"
                      << e.alternative;
            if (e.forced)
                std::cout << "  FORCED [Fig. 4 fallback]";
            if (!e.displaced.empty()) {
                std::cout << "  displaces {";
                for (std::size_t k = 0; k < e.displaced.size(); ++k)
                    std::cout << (k ? "," : "") << "op"
                              << e.displaced[k];
                std::cout << "}";
            }
            std::cout << "\n";
        }
        if (result) {
            std::cout << "  => schedule found at II=" << ii << ", SL="
                      << result->scheduleLength << ", "
                      << result->stepsUsed << " steps, "
                      << result->unschedules << " displacements\n";
            break;
        }
        std::cout << "  => budget exhausted, II := II + 1   [Fig. 2]\n";
    }
}

} // namespace

int
main()
{
    const auto machine = machine::cydra5();
    std::cout << "Figures 2-5: the iterative modulo scheduling algorithm "
                 "in action\n";

    std::cout << "\n===== one-pass case (vectorizable, HeightR order is "
                 "topological) =====";
    traceLoop("daxpy", machine);

    std::cout << "\n===== backtracking case (block reservation tables "
                 "force displacement) =====";
    traceLoop("div_kernel", machine);
    return 0;
}
