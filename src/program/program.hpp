#ifndef IMS_PROGRAM_PROGRAM_HPP
#define IMS_PROGRAM_PROGRAM_HPP

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/loop.hpp"

namespace ims::program {

/**
 * Source operand of a straight-line block statement: a named program
 * variable or an immediate. Program variables are the architectural state
 * between sections — unlike loop virtual registers they are plain named
 * scalars with no iteration distance.
 */
struct VarOperand
{
    enum class Kind { kVariable, kImmediate };

    Kind kind = Kind::kImmediate;
    std::string var;
    double immediate = 0.0;

    static VarOperand
    makeVar(std::string name)
    {
        VarOperand operand;
        operand.kind = Kind::kVariable;
        operand.var = std::move(name);
        return operand;
    }

    static VarOperand
    makeImm(double value)
    {
        VarOperand operand;
        operand.kind = Kind::kImmediate;
        operand.immediate = value;
        return operand;
    }

    bool isVariable() const { return kind == Kind::kVariable; }
};

/** Shorthand constructors used throughout the corpus definitions. */
inline VarOperand
v(std::string name)
{
    return VarOperand::makeVar(std::move(name));
}

inline VarOperand
c(double value)
{
    return VarOperand::makeImm(value);
}

/**
 * One statement of a straight-line (pre- or post-loop) block. Arithmetic
 * statements assign `dest = opcode(sources)`; loads read `array[index]`
 * into `dest`; stores write `sources[0]` to `array[index]`. Indices are
 * fixed logical element numbers (the blocks are not loops), addressed in
 * the same logical index space the loop's MemRefs use.
 */
struct Statement
{
    ir::Opcode opcode = ir::Opcode::kAdd;
    /** Assigned variable; empty for stores. */
    std::string dest;
    /** Value operands; for stores exactly one (the stored value). */
    std::vector<VarOperand> sources;
    /** Array symbol for load/store, empty otherwise. */
    std::string array;
    /** Fixed logical element index for load/store. */
    int index = 0;
    std::string comment;
};

/**
 * A straight-line basic block: an ordered statement list over program
 * variables and arrays. The ProgramCompiler lowers each block to a
 * single-iteration SSA loop body and list-schedules it on the same
 * machine model as the pipelined loop.
 */
struct Block
{
    std::string name;
    std::vector<Statement> statements;

    Block() = default;
    explicit Block(std::string n) : name(std::move(n)) {}

    Block&
    assign(ir::Opcode opcode, std::string dest,
           std::vector<VarOperand> sources, std::string comment = "")
    {
        Statement s;
        s.opcode = opcode;
        s.dest = std::move(dest);
        s.sources = std::move(sources);
        s.comment = std::move(comment);
        statements.push_back(std::move(s));
        return *this;
    }

    Block&
    load(std::string dest, std::string array, int index,
         std::string comment = "")
    {
        Statement s;
        s.opcode = ir::Opcode::kLoad;
        s.dest = std::move(dest);
        s.array = std::move(array);
        s.index = index;
        s.comment = std::move(comment);
        statements.push_back(std::move(s));
        return *this;
    }

    Block&
    store(std::string array, int index, VarOperand value,
          std::string comment = "")
    {
        Statement s;
        s.opcode = ir::Opcode::kStore;
        s.array = std::move(array);
        s.index = index;
        s.sources = {std::move(value)};
        s.comment = std::move(comment);
        statements.push_back(std::move(s));
        return *this;
    }
};

/**
 * The pipelinable loop section: an IF-converted DSA loop body (the input
 * of the modulo scheduler) plus the bindings that marshal program state
 * in and out of the loop's virtual registers.
 *
 * Marshaling model:
 *  - `tripVar` names the program variable holding the trip count
 *    (a non-negative integer value; never assigned by any block);
 *  - each live-in loop register reads the program variable named by
 *    `liveInBindings` (defaulting to the register's own name);
 *  - `seedBindings[reg]` optionally names the program variables holding
 *    a recurrence register's pre-loop history (entry k = the value at
 *    iteration -1-k), falling back to the live-in value like SimSpec;
 *  - every loop array is shared with the program array of the same name;
 *  - after a DO-loop completes with trip >= 1, each `outputs` entry
 *    copies a loop register's final value to a program variable
 *    (at trip 0 the variables keep their pre-loop values, matching the
 *    sequential engines' empty final-register state);
 *  - `itersVar` (optional) receives the executed iteration count — the
 *    trip count for DO-loops, the exit point for WHILE-loops.
 *
 * WHILE-loops (bodies containing kExitIf) must have no `outputs`:
 * post-exit register state is speculative (see sim::SimResult).
 */
struct LoopSection
{
    ir::Loop body;
    std::string tripVar = "n.trip";
    std::map<std::string, std::string> liveInBindings;
    std::map<std::string, std::vector<std::string>> seedBindings;
    /** program variable <- loop register (final value). */
    std::map<std::string, std::string> outputs;
    std::string itersVar;

    explicit LoopSection(ir::Loop loop_body) : body(std::move(loop_body)) {}

    /** Program variable feeding live-in register `reg`. */
    const std::string&
    liveInVar(const std::string& reg) const
    {
        const auto it = liveInBindings.find(reg);
        return it == liveInBindings.end() ? reg : it->second;
    }
};

/**
 * A multi-block program: straight-line pre-loop block(s), one pipelinable
 * counted or WHILE loop, and post-loop block(s) — the region shape Rau's
 * §1 compilation flow hands to the modulo scheduler after region
 * selection and IF-conversion. This is the unit the ProgramCompiler
 * compiles end to end and the program-level simulator executes.
 *
 * Variable names starting with '$' are reserved for compiler-generated
 * loop-control state (the EC/LC registers) and are rejected in source
 * programs; both executors strip them from the final state.
 */
struct Program
{
    std::string name;
    std::vector<Block> preBlocks;
    LoopSection loop;
    std::vector<Block> postBlocks;

    Program(std::string program_name, ir::Loop loop_body)
        : name(std::move(program_name)), loop(std::move(loop_body))
    {
    }

    /** Throw support::Error describing the first structural violation. */
    void validate() const;

    /**
     * Program variables that must be supplied by the initial state: every
     * variable read before any definition, in sorted order. The trip
     * variable is excluded (the executors set it from the spec), and
     * loop output variables read by post-blocks are included (they are
     * only conditionally defined — a 0-trip loop writes nothing).
     */
    std::vector<std::string> inputVariables() const;

    /** All array names referenced anywhere (blocks and loop), sorted. */
    std::vector<std::string> arrayNames() const;

    /** Names of arrays the loop body stores to, sorted. */
    std::vector<std::string> loopWrittenArrays() const;

    /** Names of arrays the loop body loads or stores, sorted. */
    std::vector<std::string> loopAccessedArrays() const;

    /** Largest |logical index| accessed by any block statement. */
    int maxBlockIndex() const;
};

/** Reserved prefix for compiler-generated control variables. */
inline constexpr char kControlVarPrefix = '$';

} // namespace ims::program

#endif // IMS_PROGRAM_PROGRAM_HPP
