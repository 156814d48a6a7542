#include "codegen/emit.hpp"

#include <sstream>

namespace ims::codegen {

namespace {

/**
 * Render one op instance with physical register names. `iteration_tag`
 * is the emission-time iteration label (modulo the MVE unroll) used to
 * pick register copies.
 */
std::string
renderInstance(const ir::Loop& loop, const RegisterAllocation& allocation,
               const MvePlan& mve, const OpInstance& instance,
               int kernel_copy)
{
    const ir::Operation& op = loop.operation(instance.op);
    std::ostringstream out;

    // The instance belongs to source iteration (kernel_copy +
    // iterationOffset) modulo unroll; register copies cycle with it.
    auto copy_of = [&](int distance) {
        const int unroll = mve.unroll;
        int index =
            (kernel_copy + instance.iterationOffset - distance) % unroll;
        if (index < 0)
            index += unroll;
        return index;
    };

    auto operand_str = [&](const ir::Operand& src) {
        if (!src.isRegister()) {
            std::ostringstream imm;
            imm << "#" << src.immediate;
            return imm.str();
        }
        if (loop.definingOp(src.reg) < 0)
            return allocation.physicalName(src.reg, 0);
        return allocation.physicalName(src.reg, copy_of(src.distance));
    };

    if (op.hasDest())
        out << allocation.physicalName(op.dest, copy_of(0)) << " = ";
    out << ir::opcodeName(op.opcode);
    for (std::size_t i = 0; i < op.sources.size(); ++i)
        out << (i == 0 ? " " : ", ") << operand_str(op.sources[i]);
    if (op.memRef) {
        out << " @" << loop.arrays()[op.memRef->array].name << "[i"
            << (instance.iterationOffset >= 0 ? "+" : "")
            << instance.iterationOffset;
        if (op.memRef->offset != 0) {
            out << (op.memRef->offset >= 0 ? "+" : "")
                << op.memRef->offset;
        }
        out << "]";
    }
    if (op.guard)
        out << " if " << operand_str(*op.guard);
    return out.str();
}

void
renderSection(std::ostringstream& out, const ir::Loop& loop,
              const RegisterAllocation& allocation, const MvePlan& mve,
              const CodeSection& section, const std::string& label,
              int kernel_copy)
{
    out << label << ":\n";
    for (int cycle = 0; cycle < section.numCycles(); ++cycle) {
        out << "  " << cycle << ":";
        if (section.cycle(cycle).empty()) {
            out << "  (nop)\n";
            continue;
        }
        bool first = true;
        for (const auto& instance : section.cycle(cycle)) {
            out << (first ? "  " : " || ")
                << renderInstance(loop, allocation, mve, instance,
                                  kernel_copy);
            first = false;
        }
        out << "\n";
    }
}

} // namespace

std::string
emitListing(const ir::Loop& loop, const GeneratedCode& code,
            const RegisterAllocation& allocation)
{
    std::ostringstream out;
    out << "; loop " << loop.name() << ": II=" << code.kernel.ii
        << " stages=" << code.kernel.stageCount
        << " mve-unroll=" << code.mve.unroll
        << " rotating-regs=" << allocation.rotatingRegisters
        << " static-regs=" << allocation.staticRegisters << "\n";

    renderSection(out, loop, allocation, code.mve, code.prologue,
                  "prologue", 0);
    for (int copy = 0; copy < code.mve.unroll; ++copy) {
        std::ostringstream label;
        label << "kernel";
        if (code.mve.unroll > 1)
            label << " (copy " << copy << ")";
        renderSection(out, loop, allocation, code.mve, code.kernelSection,
                      label.str(), copy);
    }
    renderSection(out, loop, allocation, code.mve, code.epilogue,
                  "epilogue", 0);
    return out.str();
}

std::string
emitKernel(const ir::Loop& loop, const GeneratedCode& code)
{
    std::ostringstream out;
    out << "kernel (II=" << code.kernel.ii << ", "
        << code.kernel.stageCount << " stages):\n";
    for (int slot = 0; slot < code.kernel.ii; ++slot) {
        out << "  row " << slot << ":";
        bool first = true;
        for (const auto& placement : code.kernel.rowOf(slot)) {
            out << (first ? "  " : " || ")
                << loop.operationToString(loop.operation(placement.op))
                << " {stage " << placement.stage << "}";
            first = false;
        }
        if (first)
            out << "  (empty)";
        out << "\n";
    }
    return out.str();
}

std::string
emitKernelOnly(const ir::Loop& loop, const GeneratedCode& code)
{
    const int ii = code.kernelSection.numCycles();
    std::ostringstream out;
    out << "; kernel-only schema [36]: II=" << ii << ", "
        << code.kernel.stageCount << " stage predicates, code size " << ii
        << " instruction(s)\n";
    for (int cycle = 0; cycle < ii; ++cycle) {
        out << "  " << cycle << ":";
        bool first = true;
        for (const auto& instance : code.kernelSection.cycle(cycle)) {
            out << (first ? "  " : " || ")
                << loop.operationToString(loop.operation(instance.op))
                << " if sp[" << -instance.iterationOffset << "]";
            first = false;
        }
        if (first)
            out << "  (nop)";
        out << "\n";
    }
    out << "  brtop 0\n";
    return out.str();
}

} // namespace ims::codegen
