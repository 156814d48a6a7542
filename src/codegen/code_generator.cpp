#include "codegen/code_generator.hpp"

#include <cassert>
#include <cstdint>

#include "codegen/lifetimes.hpp"

namespace ims::codegen {

double
GeneratedCode::codeExpansionRatio(int schedule_length) const
{
    // Each term fits int, but an MVE unroll near INT_MAX overflows the
    // product.
    const std::int64_t kernel_cycles =
        static_cast<std::int64_t>(kernelSection.numCycles()) * mve.unroll;
    const std::int64_t total =
        prologue.numCycles() + kernel_cycles + epilogue.numCycles();
    return schedule_length > 0
               ? static_cast<double>(total) / schedule_length
               : 0.0;
}

long long
GeneratedCode::totalInstances(int trip_count) const
{
    assert(trip_count >= kernel.stageCount);
    const long long kernel_reps = trip_count - kernel.stageCount + 1;
    return prologue.numInstances() +
           kernel_reps * kernelSection.numInstances() +
           epilogue.numInstances();
}

GeneratedCode
generateCode(const ir::Loop& loop, const machine::MachineModel& machine,
             const sched::ScheduleResult& schedule,
             support::TelemetrySink* sink)
{
    support::PhaseTimer timer(sink, support::Phase::kCodegen);
    GeneratedCode code;
    code.kernel = buildKernel(loop, schedule);
    const LifetimeAnalysis lifetimes =
        analyzeLifetimes(loop, machine, schedule);
    code.mve = planMve(loop, lifetimes, schedule.ii);

    const int ii = schedule.ii;
    const int ramp_cycles = (code.kernel.stageCount - 1) * ii;

    // Prologue: flat cycles [0, ramp); instance (P, j) issues at
    // j*II + t_P.
    code.prologue.cycles.assign(ramp_cycles, {});
    for (int op = 0; op < loop.size(); ++op) {
        const int t = schedule.times[op];
        for (int j = 0; t + j * ii < ramp_cycles; ++j)
            code.prologue.cycles[t + j * ii].push_back(OpInstance{op, j});
    }

    // Kernel: II rows; row r issues every op with t_P mod II == r on
    // behalf of the iteration started stage(P) repetitions ago.
    code.kernelSection.cycles.assign(ii, {});
    for (const auto& placement : code.kernel.placements) {
        code.kernelSection.cycles[placement.slot].push_back(
            OpInstance{placement.op, -placement.stage});
    }

    // Epilogue: cycles [0, ramp) after the final kernel repetition;
    // instance (P, m) for the iteration m-from-last issues at epilogue
    // cycle t_P - m*II when that is within range.
    code.epilogue.cycles.assign(ramp_cycles, {});
    for (int op = 0; op < loop.size(); ++op) {
        const int t = schedule.times[op];
        for (int m = 1; t - m * ii >= 0; ++m) {
            code.epilogue.cycles[t - m * ii].push_back(
                OpInstance{op, -m});
        }
    }

    return code;
}

} // namespace ims::codegen
