#include "program/program.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/error.hpp"

namespace ims::program {

namespace {

bool
isControlVar(const std::string& name)
{
    return !name.empty() && name[0] == kControlVarPrefix;
}

/** True for opcodes a straight-line block statement may use. */
bool
blockOpcodeAllowed(ir::Opcode opcode)
{
    switch (opcode) {
    case ir::Opcode::kBranch:
    case ir::Opcode::kExitIf:
    case ir::Opcode::kStart:
    case ir::Opcode::kStop:
        return false;
    default:
        return true;
    }
}

void
validateStatement(const Block& block, const Statement& statement,
                  const std::string& trip_var)
{
    const auto where = [&] {
        return "block '" + block.name + "': statement '" +
               ir::opcodeName(statement.opcode) +
               (statement.dest.empty() ? "" : " " + statement.dest) + "'";
    };
    const auto require = [&](bool condition, const char* what) {
        support::check(condition, [&] { return where() + ": " + what; });
    };

    require(blockOpcodeAllowed(statement.opcode),
            "opcode not allowed in straight-line blocks");
    support::check(!isControlVar(statement.dest), [&] {
        return where() + ": '" + std::string(1, kControlVarPrefix) +
               "'-prefixed variables are reserved for the "
               "compiler's loop-control state";
    });
    support::check(statement.dest != trip_var, [&] {
        return where() + ": blocks must not assign the trip-count "
                         "variable '" +
               trip_var + "'";
    });
    for (const auto& source : statement.sources) {
        if (source.isVariable()) {
            require(!source.var.empty(), "empty source variable name");
            support::check(!isControlVar(source.var), [&] {
                return where() + ": reads reserved control variable '" +
                       source.var + "'";
            });
        }
    }

    if (statement.opcode == ir::Opcode::kLoad) {
        require(!statement.dest.empty(), "load needs a destination variable");
        require(!statement.array.empty(), "load needs an array");
        require(statement.sources.empty(),
                "load takes no value operands (the element index is part "
                "of the statement)");
        return;
    }
    if (statement.opcode == ir::Opcode::kStore) {
        require(statement.dest.empty(), "store has no destination variable");
        require(!statement.array.empty(), "store needs an array");
        require(statement.sources.size() == 1,
                "store takes exactly the stored value");
        return;
    }
    require(!statement.dest.empty(),
            "arithmetic statement needs a destination");
    require(statement.array.empty(), "only load/store reference arrays");
    require(static_cast<int>(statement.sources.size()) ==
                ir::sourceCount(statement.opcode),
            "operand count does not match the opcode");
}

} // namespace

void
Program::validate() const
{
    support::check(!name.empty(), "program needs a name");
    loop.body.validate();

    const auto require = [&](bool condition, const char* what) {
        support::check(condition,
                       [&] { return "program '" + name + "': " + what; });
    };
    require(!loop.tripVar.empty(),
            "loop section needs a trip-count variable");
    require(!isControlVar(loop.tripVar),
            "trip variable uses the reserved control prefix");

    for (const auto* blocks : {&preBlocks, &postBlocks}) {
        for (const auto& block : *blocks) {
            require(!block.name.empty(), "block needs a name");
            for (const auto& statement : block.statements)
                validateStatement(block, statement, loop.tripVar);
        }
    }

    // Register-name lookup for binding validation.
    const auto regIdByName = [&](const std::string& reg) -> ir::RegId {
        for (ir::RegId id = 0; id < loop.body.numRegisters(); ++id) {
            if (loop.body.reg(id).name == reg)
                return id;
        }
        return ir::kNoReg;
    };

    for (const auto& [reg, var] : loop.liveInBindings) {
        const ir::RegId id = regIdByName(reg);
        support::check(id != ir::kNoReg && loop.body.reg(id).isLiveIn, [&] {
            return "program '" + name + "': live-in binding for '" + reg +
                   "' names no live-in loop register";
        });
        support::check(!var.empty() && !isControlVar(var), [&] {
            return "program '" + name + "': live-in binding for '" + reg +
                   "' uses an invalid variable name";
        });
    }
    for (const auto& [reg, vars] : loop.seedBindings) {
        const ir::RegId id = regIdByName(reg);
        support::check(
            id != ir::kNoReg && loop.body.definingOp(id) >= 0, [&] {
                return "program '" + name + "': seed binding for '" + reg +
                       "' names no in-loop-defined register";
            });
        for (const auto& var : vars) {
            support::check(!var.empty() && !isControlVar(var), [&] {
                return "program '" + name + "': seed binding for '" + reg +
                       "' uses an invalid variable name";
            });
        }
    }
    const bool early_exit = loop.body.hasEarlyExit();
    require(!early_exit || loop.outputs.empty(),
            "WHILE-loops cannot bind register outputs (post-exit state is "
            "speculative)");
    for (const auto& [var, reg] : loop.outputs) {
        const ir::RegId id = regIdByName(reg);
        support::check(
            id != ir::kNoReg && loop.body.definingOp(id) >= 0, [&] {
                return "program '" + name + "': output '" + var +
                       "' binds no in-loop-defined register";
            });
        support::check(
            !var.empty() && !isControlVar(var) && var != loop.tripVar, [&] {
                return "program '" + name + "': output variable '" + var +
                       "' is invalid";
            });
    }
    if (!loop.itersVar.empty()) {
        require(!isControlVar(loop.itersVar) &&
                    loop.itersVar != loop.tripVar &&
                    loop.outputs.find(loop.itersVar) == loop.outputs.end(),
                "iteration-count variable collides with another binding");
    }
}

std::vector<std::string>
Program::inputVariables() const
{
    std::set<std::string> defined;
    std::set<std::string> inputs;
    const auto read = [&](const std::string& var) {
        if (var != loop.tripVar && defined.find(var) == defined.end())
            inputs.insert(var);
    };
    const auto scanBlock = [&](const Block& block) {
        for (const auto& statement : block.statements) {
            for (const auto& source : statement.sources) {
                if (source.isVariable())
                    read(source.var);
            }
            if (!statement.dest.empty())
                defined.insert(statement.dest);
        }
    };
    for (const auto& block : preBlocks)
        scanBlock(block);
    for (ir::RegId id = 0; id < loop.body.numRegisters(); ++id) {
        if (loop.body.reg(id).isLiveIn)
            read(loop.liveInVar(loop.body.reg(id).name));
    }
    for (const auto& [reg, vars] : loop.seedBindings) {
        for (const auto& var : vars)
            read(var);
    }
    // Output variables stay conditionally defined (a 0-trip loop writes
    // nothing), so post-block reads of them still count as inputs; the
    // iteration count is written unconditionally.
    if (!loop.itersVar.empty())
        defined.insert(loop.itersVar);
    for (const auto& block : postBlocks)
        scanBlock(block);
    return {inputs.begin(), inputs.end()};
}

std::vector<std::string>
Program::arrayNames() const
{
    std::set<std::string> names;
    for (const auto& array : loop.body.arrays())
        names.insert(array.name);
    for (const auto* blocks : {&preBlocks, &postBlocks}) {
        for (const auto& block : *blocks) {
            for (const auto& statement : block.statements) {
                if (!statement.array.empty())
                    names.insert(statement.array);
            }
        }
    }
    return {names.begin(), names.end()};
}

std::vector<std::string>
Program::loopWrittenArrays() const
{
    std::set<std::string> names;
    for (const auto& op : loop.body.operations()) {
        if (op.isStore() && op.memRef)
            names.insert(loop.body.arrays()[op.memRef->array].name);
    }
    return {names.begin(), names.end()};
}

std::vector<std::string>
Program::loopAccessedArrays() const
{
    std::set<std::string> names;
    for (const auto& op : loop.body.operations()) {
        if (op.memRef)
            names.insert(loop.body.arrays()[op.memRef->array].name);
    }
    return {names.begin(), names.end()};
}

int
Program::maxBlockIndex() const
{
    int index = 0;
    for (const auto* blocks : {&preBlocks, &postBlocks}) {
        for (const auto& block : *blocks) {
            for (const auto& statement : block.statements) {
                if (!statement.array.empty())
                    index = std::max(index, std::abs(statement.index));
            }
        }
    }
    return index;
}

} // namespace ims::program
