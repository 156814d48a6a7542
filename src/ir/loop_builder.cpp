#include "ir/loop_builder.hpp"

#include <cassert>
#include <utility>

#include "support/error.hpp"

namespace ims::ir {

LoopBuilder::LoopBuilder(std::string name) : loop_(std::move(name)) {}

RegId
LoopBuilder::ensureRegister(const std::string& name, bool predicate,
                            bool live_in)
{
    auto it = regByName_.find(name);
    if (it != regByName_.end())
        return it->second;
    RegisterInfo info;
    info.name = name;
    info.isPredicate = predicate;
    info.isLiveIn = live_in;
    const RegId id = loop_.addRegister(std::move(info));
    regByName_.emplace(name, id);
    return id;
}

ArrayId
LoopBuilder::ensureArray(const std::string& name)
{
    auto it = arrayByName_.find(name);
    if (it != arrayByName_.end())
        return it->second;
    const ArrayId id = loop_.addArray(ArrayInfo{name});
    arrayByName_.emplace(name, id);
    return id;
}

LoopBuilder&
LoopBuilder::liveIn(const std::string& name, bool predicate)
{
    ensureRegister(name, predicate, true);
    return *this;
}

LoopBuilder&
LoopBuilder::recurrence(const std::string& name)
{
    return liveIn(name, false);
}

Operand
LoopBuilder::reg(const std::string& name, int distance)
{
    auto it = regByName_.find(name);
    support::check(it != regByName_.end(), [&] {
        return "operand register '" + name +
               "' read before any definition; declare it with "
               "liveIn()/recurrence() or define it first";
    });
    return Operand::makeReg(it->second, distance);
}

Operand
LoopBuilder::imm(double value)
{
    return Operand::makeImm(value);
}

OpId
LoopBuilder::append(Operation operation)
{
    return loop_.addOperation(std::move(operation));
}

OpId
LoopBuilder::op(Opcode opcode, const std::string& dest,
                std::vector<Operand> sources, const std::string& comment)
{
    Operation operation;
    operation.opcode = opcode;
    operation.sources = std::move(sources);
    operation.comment = comment;
    if (!dest.empty()) {
        operation.dest =
            ensureRegister(dest, definesPredicate(opcode), false);
    }
    return append(std::move(operation));
}

OpId
LoopBuilder::opIf(Opcode opcode, const std::string& dest,
                  std::vector<Operand> sources, const Operand& guard,
                  const std::string& comment)
{
    Operation operation;
    operation.opcode = opcode;
    operation.sources = std::move(sources);
    operation.guard = guard;
    operation.comment = comment;
    if (!dest.empty()) {
        operation.dest =
            ensureRegister(dest, definesPredicate(opcode), false);
    }
    return append(std::move(operation));
}

OpId
LoopBuilder::load(const std::string& dest, const std::string& array,
                  int offset, const Operand& address,
                  const std::string& comment, int stride)
{
    Operation operation;
    operation.opcode = Opcode::kLoad;
    operation.dest = ensureRegister(dest, false, false);
    operation.sources = {address};
    operation.memRef = MemRef{ensureArray(array), offset, stride};
    operation.comment = comment;
    return append(std::move(operation));
}

OpId
LoopBuilder::store(const std::string& array, int offset,
                   const Operand& address, const Operand& value,
                   const std::string& comment, int stride)
{
    Operation operation;
    operation.opcode = Opcode::kStore;
    operation.sources = {address, value};
    operation.memRef = MemRef{ensureArray(array), offset, stride};
    operation.comment = comment;
    return append(std::move(operation));
}

OpId
LoopBuilder::loadIf(const std::string& dest, const std::string& array,
                    int offset, const Operand& address, const Operand& guard,
                    int stride)
{
    Operation operation;
    operation.opcode = Opcode::kLoad;
    operation.dest = ensureRegister(dest, false, false);
    operation.sources = {address};
    operation.memRef = MemRef{ensureArray(array), offset, stride};
    operation.guard = guard;
    return append(std::move(operation));
}

OpId
LoopBuilder::storeIf(const std::string& array, int offset,
                     const Operand& address, const Operand& value,
                     const Operand& guard, int stride)
{
    Operation operation;
    operation.opcode = Opcode::kStore;
    operation.sources = {address, value};
    operation.memRef = MemRef{ensureArray(array), offset, stride};
    operation.guard = guard;
    return append(std::move(operation));
}

OpId
LoopBuilder::exitIf(const Operand& condition, const std::string& comment)
{
    Operation operation;
    operation.opcode = Opcode::kExitIf;
    operation.sources = {condition};
    operation.comment = comment;
    return append(std::move(operation));
}

void
LoopBuilder::closeLoop(const std::string& counter)
{
    liveIn(counter);
    op(Opcode::kAddrSub, counter, {reg(counter, 1), imm(1)},
       "trip count decrement");
    Operation branch;
    branch.opcode = Opcode::kBranch;
    branch.sources = {reg(counter)};
    branch.comment = "loop-closing branch";
    append(std::move(branch));
}

void
LoopBuilder::closeLoopBackSubstituted(const std::string& counter, int factor)
{
    liveIn(counter);
    op(Opcode::kAddrSub, counter,
       {reg(counter, factor), imm(static_cast<double>(factor))},
       "trip count decrement (back-substituted)");
    Operation branch;
    branch.opcode = Opcode::kBranch;
    branch.sources = {reg(counter)};
    branch.comment = "loop-closing branch";
    append(std::move(branch));
}

Loop
LoopBuilder::build()
{
    loop_.validate();
    return std::move(loop_);
}

} // namespace ims::ir
