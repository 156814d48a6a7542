#ifndef IMS_SIM_PIPELINE_SIMULATOR_HPP
#define IMS_SIM_PIPELINE_SIMULATOR_HPP

#include "ir/loop.hpp"
#include "sched/attempt.hpp"
#include "sim/sequential_interpreter.hpp"

namespace ims::sim {

/** Result of executing a modulo schedule. */
struct PipelineResult
{
    SimResult state;
    /**
     * Total execution cycles: the last iteration starts at
     * (trip - 1) * II and completes SL cycles later — the paper's
     * execution-time model with EntryFreq = 1.
     */
    long long cycles = 0;
};

/**
 * Execute a software-pipelined loop cycle-accurately: iteration i issues
 * operation P at absolute cycle i * II + SchedTime(P); overlapped
 * iterations interleave exactly as the kernel would execute on the VLIW.
 * Same-cycle memory ordering follows the dependence model: loads sample
 * memory in their issue cycle, stores become visible the following cycle.
 *
 * Because the engine executes the *schedule* rather than the program
 * order, comparing its final state against runSequential() end-to-end
 * validates that the schedule preserves the loop's semantics (all
 * dependences, including inter-iteration and memory dependences, at the
 * machine latencies).
 */
PipelineResult runPipelined(const ir::Loop& loop,
                            const sched::ScheduleResult& schedule,
                            const SimSpec& spec);

} // namespace ims::sim

#endif // IMS_SIM_PIPELINE_SIMULATOR_HPP
