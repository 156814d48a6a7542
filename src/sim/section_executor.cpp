#include "sim/section_executor.hpp"

#include "support/error.hpp"

namespace ims::sim {

void
executeOpInstance(const ir::Operation& op, int iter,
                  RegisterFile& registers, Memory& memory)
{
    if (op.opcode == ir::Opcode::kBranch)
        return;

    const bool active =
        !op.guard || isTrue(registers.readOperand(*op.guard, iter));

    if (op.isStore()) {
        if (!active)
            return;
        memory.write(op.memRef->array,
                     op.memRef->stride * iter + op.memRef->offset,
                     registers.readOperand(op.sources[1], iter));
        return;
    }
    if (!op.hasDest())
        return;

    Value result = 0.0;
    if (active) {
        if (op.isLoad()) {
            result = memory.read(op.memRef->array,
                                 op.memRef->stride * iter +
                                     op.memRef->offset);
        } else {
            std::vector<Value> sources;
            sources.reserve(op.sources.size());
            for (const auto& src : op.sources)
                sources.push_back(registers.readOperand(src, iter));
            result = evaluate(op.opcode, sources);
        }
    }
    registers.write(op.dest, iter, result);
}

void
executeCycle(const ir::Loop& loop, const codegen::CodeSection& section,
             int cycle, int base, int trip, RegisterFile& registers,
             Memory& memory)
{
    for (const bool stores : {false, true}) {
        for (const auto& instance : section.cycle(cycle)) {
            const ir::Operation& op = loop.operation(instance.op);
            const int iter = base + instance.iterationOffset;
            if (op.isStore() == stores && iter >= 0 && iter < trip)
                executeOpInstance(op, iter, registers, memory);
        }
    }
}

namespace {

/** Execute every cycle of `section` with iteration base `base`. */
void
executeSection(const ir::Loop& loop, const codegen::CodeSection& section,
               int base, int trip, RegisterFile& registers, Memory& memory)
{
    for (int c = 0; c < section.numCycles(); ++c)
        executeCycle(loop, section, c, base, trip, registers, memory);
}

} // namespace

SimResult
runGeneratedCode(const ir::Loop& loop, const codegen::GeneratedCode& code,
                 const SimSpec& spec)
{
    loop.validate();
    support::check(!loop.hasEarlyExit(),
                   "the prologue/kernel/epilogue schema supports "
                   "DO-loops only; early-exit loops need the "
                   "kernel-only (ESC) schema");
    const int trip = spec.tripCount;
    support::check(trip >= code.kernel.stageCount,
                   "trip count below the stage count: the pipelined loop "
                   "would be bypassed (preconditioning)");

    Memory memory = initialMemory(loop, spec);
    RegisterFile registers(loop, spec, trip);

    // Prologue: instances carry absolute iteration indices.
    executeSection(loop, code.prologue, 0, trip, registers, memory);

    // Kernel repetitions: repetition r's "current" iteration is
    // stageCount - 1 + r; instances are tagged -stage.
    const int reps = trip - code.kernel.stageCount + 1;
    for (int r = 0; r < reps; ++r) {
        executeSection(loop, code.kernelSection,
                       code.kernel.stageCount - 1 + r, trip, registers,
                       memory);
    }

    // Epilogue: instances are tagged from the end (-1 = last iteration).
    executeSection(loop, code.epilogue, trip, trip, registers, memory);

    return SimResult{std::move(memory), finalRegisters(loop, registers, trip),
                     trip};
}

SimResult
runKernelOnly(const ir::Loop& loop, const codegen::GeneratedCode& code,
              const SimSpec& spec)
{
    loop.validate();
    support::check(!loop.hasEarlyExit(),
                   "early-exit kernel-only execution (ESC counting) "
                   "is not implemented");
    const int trip = spec.tripCount;

    Memory memory = initialMemory(loop, spec);
    RegisterFile registers(loop, spec, trip);

    // Repetition r runs the stage-s instances for iteration r - s.
    for (int r = 0; r < trip + code.kernel.stageCount - 1; ++r)
        executeSection(loop, code.kernelSection, r, trip, registers, memory);

    return SimResult{std::move(memory), finalRegisters(loop, registers, trip),
                     trip};
}

} // namespace ims::sim
