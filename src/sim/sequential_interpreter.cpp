#include "sim/sequential_interpreter.hpp"

#include "sim/register_file.hpp"
#include "support/error.hpp"

namespace ims::sim {

Memory
initialMemory(const ir::Loop& loop, const SimSpec& spec)
{
    support::check(spec.tripCount >= 0, "trip count must be non-negative");
    Memory memory(loop, spec.tripCount, spec.margin);
    for (const auto& [name, init] : spec.arrays) {
        for (ir::ArrayId array = 0; array < loop.numArrays(); ++array) {
            if (loop.arrays()[array].name == name)
                memory.init(array, init.first, init.second);
        }
    }
    return memory;
}

std::map<std::string, Value>
finalRegisters(const ir::Loop& loop, const RegisterFile& registers, int trip)
{
    std::map<std::string, Value> values;
    if (trip == 0 || loop.hasEarlyExit())
        return values;
    for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
        if (loop.definingOp(reg) >= 0)
            values[loop.reg(reg).name] = registers.read(reg, trip - 1);
    }
    return values;
}

bool
equivalent(const SimResult& a, const SimResult& b)
{
    if (a.executedIterations != b.executedIterations)
        return false;
    if (!(a.memory == b.memory))
        return false;
    if (a.finalRegisters.size() != b.finalRegisters.size())
        return false;
    for (const auto& [name, value] : a.finalRegisters) {
        const auto it = b.finalRegisters.find(name);
        if (it == b.finalRegisters.end() || !sameValue(value, it->second))
            return false;
    }
    return true;
}

std::string
describeDifference(const SimResult& a, const SimResult& b)
{
    if (a.executedIterations != b.executedIterations) {
        return "executed iterations " +
               std::to_string(a.executedIterations) + " vs " +
               std::to_string(b.executedIterations);
    }
    const std::string memory = a.memory.firstDifference(b.memory);
    if (!memory.empty())
        return memory;
    if (a.finalRegisters.size() != b.finalRegisters.size())
        return "final register sets differ in size";
    for (const auto& [name, value] : a.finalRegisters) {
        const auto it = b.finalRegisters.find(name);
        if (it == b.finalRegisters.end())
            return "register '" + name + "' missing from second state";
        if (!sameValue(value, it->second)) {
            return "register '" + name + "': " + std::to_string(value) +
                   " vs " + std::to_string(it->second);
        }
    }
    return "";
}

SimResult
runSequential(const ir::Loop& loop, const SimSpec& spec)
{
    loop.validate();
    Memory memory = initialMemory(loop, spec);
    RegisterFile registers(loop, spec, spec.tripCount);

    int executed = 0;
    bool exited = false;
    for (int iter = 0; iter < spec.tripCount && !exited; ++iter) {
        ++executed;
        for (const auto& op : loop.operations()) {
            const bool active =
                !op.guard || isTrue(registers.readOperand(*op.guard, iter));

            if (op.opcode == ir::Opcode::kBranch)
                continue;

            if (op.opcode == ir::Opcode::kExitIf) {
                if (active &&
                    registers.readOperand(op.sources[0], iter) > 0.0) {
                    exited = true;
                    break; // the rest of this iteration does not run
                }
                continue;
            }

            if (op.isStore()) {
                if (!active)
                    continue;
                memory.write(op.memRef->array, op.memRef->stride * iter + op.memRef->offset,
                             registers.readOperand(op.sources[1], iter));
                continue;
            }

            if (!op.hasDest())
                continue;

            Value result = 0.0;
            if (active) {
                if (op.isLoad()) {
                    result = memory.read(op.memRef->array,
                                         op.memRef->stride * iter + op.memRef->offset);
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
    }

    return SimResult{std::move(memory),
                     finalRegisters(loop, registers, spec.tripCount),
                     executed};
}

} // namespace ims::sim
