#include "sim/pipeline_simulator.hpp"

#include <algorithm>
#include <vector>

#include "sim/section_executor.hpp"
#include "support/error.hpp"

namespace ims::sim {

namespace {

/** One dynamic operation instance awaiting execution. */
struct Instance
{
    long long issueTime = 0;
    int iteration = 0;
    ir::OpId op = -1;
    bool isStore = false;
};

} // namespace

PipelineResult
runPipelined(const ir::Loop& loop, const sched::ScheduleResult& schedule,
             const SimSpec& spec)
{
    loop.validate();
    support::check(static_cast<int>(schedule.times.size()) == loop.size(),
                   "schedule does not match the loop");

    Memory memory = initialMemory(loop, spec);
    RegisterFile registers(loop, spec, spec.tripCount);

    // Enumerate all dynamic instances and order them by issue cycle.
    // Within a cycle, loads execute before stores (stores commit at the
    // end of their issue cycle); other operations are order-independent
    // because flow latencies are >= 1.
    std::vector<Instance> instances;
    instances.reserve(static_cast<std::size_t>(spec.tripCount) *
                      loop.size());
    for (int iter = 0; iter < spec.tripCount; ++iter) {
        for (const auto& op : loop.operations()) {
            Instance instance;
            instance.issueTime =
                static_cast<long long>(iter) * schedule.ii +
                schedule.times[op.id];
            instance.iteration = iter;
            instance.op = op.id;
            instance.isStore = op.isStore();
            instances.push_back(instance);
        }
    }
    std::sort(instances.begin(), instances.end(),
              [](const Instance& a, const Instance& b) {
                  if (a.issueTime != b.issueTime)
                      return a.issueTime < b.issueTime;
                  if (a.isStore != b.isStore)
                      return !a.isStore; // loads (and ALU ops) first
                  if (a.iteration != b.iteration)
                      return a.iteration < b.iteration;
                  return a.op < b.op;
              });

    // First exit that fired, as (iteration, op id); everything at or
    // beyond it (in original program order) is squashed. The exit->store
    // control dependences guarantee every store issues after the exits
    // that could squash it have resolved, so a single time-ordered pass
    // is exact.
    long long exit_iter = -1;
    int exit_op = -1;
    auto squashed = [&](int iter, int op_id) {
        if (exit_iter < 0)
            return false;
        return iter > exit_iter ||
               (iter == exit_iter && op_id > exit_op);
    };

    for (const Instance& instance : instances) {
        const ir::Operation& op = loop.operation(instance.op);
        const int iter = instance.iteration;
        if (op.opcode == ir::Opcode::kExitIf) {
            const bool active =
                !op.guard || isTrue(registers.readOperand(*op.guard, iter));
            if (active && !squashed(iter, op.id) &&
                registers.readOperand(op.sources[0], iter) > 0.0) {
                if (exit_iter < 0 || iter < exit_iter ||
                    (iter == exit_iter && op.id < exit_op)) {
                    exit_iter = iter;
                    exit_op = op.id;
                }
            }
            continue;
        }
        if (op.isStore() && squashed(iter, op.id))
            continue;
        executeOpInstance(op, iter, registers, memory);
    }

    const int executed = exit_iter >= 0
                             ? static_cast<int>(exit_iter) + 1
                             : spec.tripCount;
    PipelineResult result{
        SimResult{std::move(memory),
                  finalRegisters(loop, registers, spec.tripCount), executed},
        0};
    if (executed > 0) {
        result.cycles = static_cast<long long>(executed - 1) * schedule.ii +
                        schedule.scheduleLength;
    }
    return result;
}

} // namespace ims::sim
