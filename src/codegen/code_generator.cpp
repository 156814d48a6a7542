#include "codegen/code_generator.hpp"

#include <cassert>
#include <cstdint>
#include <vector>

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

namespace {

/**
 * Lay out a section of `num_cycles` cycles by counting sort. `visit(emit)`
 * must call emit(cycle, instance) for every instance, in the same order
 * each time: it runs once to count each cycle's instances and once to
 * place them, so a cycle lists its instances in visiting order.
 */
template <typename Visit>
CodeSection
layoutSection(int num_cycles, const Visit& visit)
{
    CodeSection section;
    section.cycleStart.assign(num_cycles + 1, 0);
    visit([&](int cycle, OpInstance) { ++section.cycleStart[cycle + 1]; });
    for (int c = 0; c < num_cycles; ++c)
        section.cycleStart[c + 1] += section.cycleStart[c];
    section.instances.resize(section.cycleStart[num_cycles]);
    std::vector<int> next(section.cycleStart.begin(),
                          section.cycleStart.end() - 1);
    visit([&](int cycle, OpInstance instance) {
        section.instances[next[cycle]++] = instance;
    });
    return section;
}

} // namespace

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
    code.prologue = layoutSection(ramp_cycles, [&](auto&& emit) {
        for (int op = 0; op < loop.size(); ++op) {
            const int t = schedule.times[op];
            for (int j = 0; t + j * ii < ramp_cycles; ++j)
                emit(t + j * ii, OpInstance{op, j});
        }
    });

    // Kernel: II rows; row r issues every op with t_P mod II == r on
    // behalf of the iteration started stage(P) repetitions ago.
    code.kernelSection = layoutSection(ii, [&](auto&& emit) {
        for (const auto& placement : code.kernel.placements)
            emit(placement.slot, OpInstance{placement.op, -placement.stage});
    });

    // Epilogue: cycles [0, ramp) after the final kernel repetition;
    // instance (P, m) for the iteration m-from-last issues at epilogue
    // cycle t_P - m*II when that is within range.
    code.epilogue = layoutSection(ramp_cycles, [&](auto&& emit) {
        for (int op = 0; op < loop.size(); ++op) {
            const int t = schedule.times[op];
            for (int m = 1; t - m * ii >= 0; ++m)
                emit(t - m * ii, OpInstance{op, -m});
        }
    });

    return code;
}

} // namespace ims::codegen
