#include "sim/section_executor.hpp"

#include <algorithm>

#include "sim/register_file.hpp"
#include "support/error.hpp"

namespace ims::sim {

void
executeOpInstance(const ir::Operation& op, int iter,
                  RegisterFile& registers, Memory& memory, bool store_phase)
{
    if (op.opcode == ir::Opcode::kBranch)
        return;
    if (op.isStore() != store_phase)
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

namespace {

/** Execute a section's cycles with a per-cycle iteration base mapping. */
void
executeSection(const ir::Loop& loop, const codegen::CodeSection& section,
               int iteration_base, int trip, RegisterFile& registers,
               Memory& memory)
{
    for (int c = 0; c < section.numCycles(); ++c) {
        // Loads and ALU ops first, then stores (same-cycle ordering).
        for (const bool store_phase : {false, true}) {
            for (const auto& instance : section.cycle(c)) {
                const int iter = iteration_base + instance.iterationOffset;
                if (iter < 0 || iter >= trip)
                    continue;
                executeOpInstance(loop.operation(instance.op), iter,
                                  registers, memory, store_phase);
            }
        }
    }
}

} // namespace

SimResult
runGeneratedCode(const ir::Loop& loop, const codegen::GeneratedCode& code,
                 const SimSpec& spec)
{
    loop.validate();
    for (const auto& op : loop.operations()) {
        support::check(op.opcode != ir::Opcode::kExitIf,
                       "the prologue/kernel/epilogue schema supports "
                       "DO-loops only; early-exit loops need the "
                       "kernel-only (ESC) schema");
    }
    const int trip = spec.tripCount;
    support::check(trip >= code.kernel.stageCount,
                   "trip count below the stage count: the pipelined loop "
                   "would be bypassed (preconditioning)");

    Memory memory(loop, trip, spec.margin);
    for (const auto& [name, init] : spec.arrays) {
        for (ir::ArrayId array = 0; array < loop.numArrays(); ++array) {
            if (loop.arrays()[array].name == name)
                memory.init(array, init.first, init.second);
        }
    }
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

    SimResult result{std::move(memory), {}, trip};
    for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
        if (loop.definingOp(reg) >= 0) {
            result.finalRegisters[loop.reg(reg).name] =
                registers.read(reg, trip - 1);
        }
    }
    return result;
}

SimResult
runKernelOnly(const ir::Loop& loop, const codegen::KernelOnlyCode& code,
              const SimSpec& spec)
{
    loop.validate();
    for (const auto& op : loop.operations()) {
        support::check(op.opcode != ir::Opcode::kExitIf,
                       "early-exit kernel-only execution (ESC counting) "
                       "is not implemented");
    }
    const int trip = spec.tripCount;

    Memory memory(loop, trip, spec.margin);
    for (const auto& [name, init] : spec.arrays) {
        for (ir::ArrayId array = 0; array < loop.numArrays(); ++array) {
            if (loop.arrays()[array].name == name)
                memory.init(array, init.first, init.second);
        }
    }
    RegisterFile registers(loop, spec, trip);

    for (int rep = 0; rep < code.repetitions(trip); ++rep) {
        for (const auto& cycle : code.cycles) {
            for (const bool store_phase : {false, true}) {
                for (const auto& placement : cycle) {
                    // Stage predicate: this stage's iteration is live.
                    const int iter = rep - placement.stage;
                    if (iter < 0 || iter >= trip)
                        continue;
                    executeOpInstance(loop.operation(placement.op), iter,
                                      registers, memory, store_phase);
                }
            }
        }
    }

    SimResult result{std::move(memory), {}, trip};
    // A zero-trip loop executed nothing: the sequential reference leaves
    // finalRegisters empty, and reading iteration -1 here would surface
    // seed values instead.
    if (trip >= 1) {
        for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
            if (loop.definingOp(reg) >= 0) {
                result.finalRegisters[loop.reg(reg).name] =
                    registers.read(reg, trip - 1);
            }
        }
    }
    return result;
}

} // namespace ims::sim
