#include "ir/loop.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "support/error.hpp"

namespace ims::ir {

RegId
Loop::addRegister(RegisterInfo info)
{
    registers_.push_back(std::move(info));
    defOf_.push_back(-1);
    return static_cast<RegId>(registers_.size()) - 1;
}

ArrayId
Loop::addArray(ArrayInfo info)
{
    arrays_.push_back(std::move(info));
    return static_cast<ArrayId>(arrays_.size()) - 1;
}

OpId
Loop::addOperation(Operation operation)
{
    operation.id = static_cast<OpId>(operations_.size());
    if (operation.hasDest()) {
        assert(operation.dest >= 0 && operation.dest < numRegisters());
        support::check(defOf_[operation.dest] < 0, [&] {
            return "register '" + registers_[operation.dest].name +
                   "' defined more than once (loop is in single "
                   "assignment form)";
        });
        defOf_[operation.dest] = operation.id;
    }
    operations_.push_back(std::move(operation));
    return operations_.back().id;
}

OpId
Loop::definingOp(RegId reg) const
{
    assert(reg >= 0 && reg < numRegisters());
    return defOf_[reg];
}

int
Loop::maxDistance() const
{
    int max_distance = 0;
    for (const auto& op : operations_) {
        for (const auto& src : op.sources) {
            if (src.isRegister())
                max_distance = std::max(max_distance, src.distance);
        }
        if (op.guard && op.guard->isRegister())
            max_distance = std::max(max_distance, op.guard->distance);
    }
    return max_distance;
}

int
Loop::maxStride() const
{
    int max_stride = 1;
    for (const auto& op : operations_) {
        if (op.memRef)
            max_stride = std::max(max_stride, op.memRef->stride);
    }
    return max_stride;
}

bool
Loop::hasEarlyExit() const
{
    for (const auto& op : operations_) {
        if (op.opcode == Opcode::kExitIf)
            return true;
    }
    return false;
}

void
Loop::validate() const
{
    auto check_operand = [this](const Operation& op, const Operand& src,
                                const char* what) {
        if (!src.isRegister())
            return;
        support::check(src.reg >= 0 && src.reg < numRegisters(), [&] {
            return "operation " + std::to_string(op.id) +
                   " reads undeclared register";
        });
        support::check(src.distance >= 0, [&] {
            return "negative operand distance on op " +
                   std::to_string(op.id);
        });
        const RegisterInfo& info = registers_[src.reg];
        if (src.distance == 0 && !info.isLiveIn) {
            support::check(defOf_[src.reg] >= 0, [&] {
                return std::string(what) + " of op " +
                       std::to_string(op.id) + " reads register '" +
                       info.name + "' which is never defined";
            });
        }
        if (src.distance > 0) {
            // Cross-iteration reads need a live-in seed: at iteration
            // i < distance the value read predates the loop.
            support::check(info.isLiveIn, [&] {
                return "cross-iteration read of register '" + info.name +
                       "' which has no pre-loop seed; declare it "
                       "live-in (recurrence)";
            });
        }
    };

    for (const auto& op : operations_) {
        support::check(!isPseudo(op.opcode),
                       "pseudo opcodes may not appear in loop bodies");
        support::check(
            static_cast<int>(op.sources.size()) == sourceCount(op.opcode),
            [&] {
                return "operation " + std::to_string(op.id) + " (" +
                       opcodeName(op.opcode) + ") has " +
                       std::to_string(op.sources.size()) +
                       " operands, expected " +
                       std::to_string(sourceCount(op.opcode));
            });
        support::check(definesRegister(op.opcode) == op.hasDest(), [&] {
            return "operation " + std::to_string(op.id) +
                   " dest does not match opcode";
        });
        if (op.hasDest()) {
            const bool pred_dest = registers_[op.dest].isPredicate;
            support::check(pred_dest == definesPredicate(op.opcode), [&] {
                return "operation " + std::to_string(op.id) +
                       " result register class mismatch";
            });
        }
        support::check(
            accessesMemory(op.opcode) == op.memRef.has_value(), [&] {
                return "operation " + std::to_string(op.id) +
                       " memory reference mismatch";
            });
        if (op.memRef) {
            support::check(
                op.memRef->array >= 0 && op.memRef->array < numArrays(),
                [&] {
                    return "operation " + std::to_string(op.id) +
                           " references undeclared array";
                });
            support::check(op.memRef->stride >= 1, [&] {
                return "operation " + std::to_string(op.id) +
                       " has a non-positive memory stride";
            });
        }
        for (const auto& src : op.sources)
            check_operand(op, src, "operand");
        if (op.guard) {
            support::check(op.guard->isRegister(), [&] {
                return "guard of op " + std::to_string(op.id) +
                       " must be a predicate register";
            });
            check_operand(op, *op.guard, "guard");
            support::check(registers_[op.guard->reg].isPredicate, [&] {
                return "guard of op " + std::to_string(op.id) +
                       " is not a predicate register";
            });
        }
    }
}

std::string
Loop::operationToString(const Operation& operation) const
{
    std::ostringstream out;
    auto operand_str = [this](const Operand& src) {
        if (!src.isRegister()) {
            std::ostringstream imm;
            imm << "#" << src.immediate;
            return imm.str();
        }
        std::string text = registers_[src.reg].name;
        if (src.distance > 0)
            text += "[" + std::to_string(src.distance) + "]";
        return text;
    };

    if (operation.hasDest())
        out << registers_[operation.dest].name << " = ";
    out << opcodeName(operation.opcode);
    for (std::size_t i = 0; i < operation.sources.size(); ++i)
        out << (i == 0 ? " " : ", ") << operand_str(operation.sources[i]);
    if (operation.memRef) {
        out << " @ " << arrays_[operation.memRef->array].name << "[";
        if (operation.memRef->stride != 1)
            out << operation.memRef->stride << "*";
        out << "i" << (operation.memRef->offset >= 0 ? "+" : "")
            << operation.memRef->offset << "]";
    }
    if (operation.guard)
        out << " if " << operand_str(*operation.guard);
    if (!operation.comment.empty())
        out << "  ; " << operation.comment;
    return out.str();
}

std::string
Loop::toString() const
{
    std::ostringstream out;
    out << "loop " << name_ << " (" << size() << " ops)\n";
    for (const auto& op : operations_)
        out << "  [" << op.id << "] " << operationToString(op) << "\n";
    return out.str();
}

} // namespace ims::ir
