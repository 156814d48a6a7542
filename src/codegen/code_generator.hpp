#ifndef IMS_CODEGEN_CODE_GENERATOR_HPP
#define IMS_CODEGEN_CODE_GENERATOR_HPP

#include <span>
#include <vector>

#include "codegen/kernel.hpp"
#include "codegen/mve.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"
#include "sched/attempt.hpp"

namespace ims::codegen {

/**
 * One emitted operation instance. `iterationOffset` identifies which
 * source iteration the instance belongs to: in the prologue it counts from
 * the first iteration (0, 1, ...); in the kernel it is -stage (the
 * iteration started `stage` kernel repetitions before the current one);
 * in the epilogue it counts back from the final iteration (-1 is the last
 * iteration, -2 the one before, ...).
 */
struct OpInstance
{
    ir::OpId op = -1;
    int iterationOffset = 0;
};

/**
 * A straight-line section of VLIW code. Every op instance sits in one
 * flat array, cycle after cycle: cycle c issues
 * instances[cycleStart[c], cycleStart[c + 1]).
 */
struct CodeSection
{
    std::vector<OpInstance> instances;
    /** numCycles() + 1 offsets into `instances` (empty: no cycles). */
    std::vector<int> cycleStart;

    int
    numCycles() const
    {
        return cycleStart.empty() ? 0
                                  : static_cast<int>(cycleStart.size()) - 1;
    }

    int numInstances() const { return static_cast<int>(instances.size()); }

    /** The instances issued in cycle `c`, in emission order. */
    std::span<const OpInstance>
    cycle(int c) const
    {
        return {instances.data() + cycleStart[c],
                instances.data() + cycleStart[c + 1]};
    }
};

/**
 * The complete code-generation schema for a DO-loop on hardware without
 * predicated kernel-only execution (§1 / [36]): a prologue that ramps the
 * pipeline up over StageCount-1 IIs, the steady-state kernel executed
 * trip - StageCount + 1 times, and an epilogue that drains it. When the
 * MVE plan is non-trivial the kernel section must be replicated
 * `mve.unroll` times with register renaming at emission (see emit.hpp).
 *
 * Requires trip count >= stageCount; shorter trip counts would bypass the
 * pipelined loop entirely (handled by the pipeliner's preconditioning
 * check, not here).
 */
struct GeneratedCode
{
    Kernel kernel;
    MvePlan mve;
    CodeSection prologue;
    /** One kernel repetition (before MVE replication). */
    CodeSection kernelSection;
    CodeSection epilogue;

    /**
     * Static code size in VLIW instructions (cycles), with the kernel
     * counted mve.unroll times, relative to the single-iteration schedule
     * length — the "code expansion" the paper contrasts with unrolling
     * schemes (§4.3's 118% replication threshold).
     */
    double codeExpansionRatio(int schedule_length) const;

    /**
     * Number of op instances the three sections contribute for a given
     * trip count (prologue + (trip - stageCount + 1) * kernel + epilogue);
     * equals trip * numOps for any trip >= stageCount (tested invariant).
     */
    long long totalInstances(int trip_count) const;
};

/**
 * Build the prologue/kernel/epilogue structure for a schedule. When `sink`
 * is non-null the construction is reported as one Phase::kCodegen sample.
 */
GeneratedCode generateCode(const ir::Loop& loop,
                           const machine::MachineModel& machine,
                           const sched::ScheduleResult& schedule,
                           support::TelemetrySink* sink = nullptr);

} // namespace ims::codegen

#endif // IMS_CODEGEN_CODE_GENERATOR_HPP
