#ifndef IMS_SIM_SEQUENTIAL_INTERPRETER_HPP
#define IMS_SIM_SEQUENTIAL_INTERPRETER_HPP

#include <map>
#include <string>
#include <vector>

#include "ir/loop.hpp"
#include "sim/memory.hpp"
#include "sim/value.hpp"

namespace ims::sim {

/** Input state for simulating a loop. */
struct SimSpec
{
    /**
     * Number of iterations to execute (>= 0). A zero trip count executes
     * nothing: the result is the initial memory image with no final
     * registers (both engines agree on this, so 0-trip equivalence checks
     * exercise the "loop body never entered" paths).
     */
    int tripCount = 16;
    /** Memory margin on both sides of [0, tripCount) (see Memory). */
    int margin = 8;
    /**
     * Values of live-in registers (loop invariants); also the fallback
     * seed for recurrence registers without explicit seeds.
     */
    std::map<std::string, Value> liveIn;
    /**
     * Pre-loop values of recurrence registers: seeds[name][k] is the value
     * the register "had" at iteration -1-k (so seeds[name][0] is the value
     * one iteration before the first).
     */
    std::map<std::string, std::vector<Value>> seeds;
    /** Initial array contents: name -> (first logical index, values). */
    std::map<std::string, std::pair<int, std::vector<Value>>> arrays;
};

/**
 * The memory every engine starts from: `spec.arrays` written over zeroed
 * arrays of simulatedCells(loop, spec.tripCount, spec.margin) cells.
 *
 * @throws support::Error for a negative trip count, and
 *         support::CodedError "sim.too_large" before allocating.
 */
Memory initialMemory(const ir::Loop& loop, const SimSpec& spec);

/** Final architectural state after simulating a loop. */
struct SimResult
{
    Memory memory;
    /**
     * Final (last executed iteration) value of every register defined
     * in-loop. Left empty for loops containing early exits (kExitIf):
     * post-exit registers are speculative and engine-dependent, so
     * equivalence for such loops is judged on memory and the exit point.
     */
    std::map<std::string, Value> finalRegisters;
    /**
     * Iterations entered: the trip count for DO-loops, or E + 1 when an
     * early exit fired in iteration E.
     */
    int executedIterations = 0;
};

/**
 * NaN-tolerant equivalence between two final states (same arrays, same
 * register names, every value equal by sim::sameValue). The canonical
 * check that a pipelined execution preserved the loop's semantics.
 */
bool equivalent(const SimResult& a, const SimResult& b);

/**
 * Human-readable description of the first difference between two final
 * states ("" when equivalent): executed-iteration counts, memory contents,
 * then register values. Used by the sim-equivalence oracle to produce
 * actionable diagnostics.
 */
std::string describeDifference(const SimResult& a, const SimResult& b);

/**
 * Reference semantics: execute the loop iteration by iteration, operations
 * in program order. Guarded operations whose predicate is false perform no
 * store and write 0.0 to their destination (both engines share this rule,
 * making cross-engine comparison exact).
 *
 * @throws support::Error if an operation reads a same-iteration value
 *         whose definition appears later in program order (bodies must be
 *         listed in intra-iteration topological order).
 */
SimResult runSequential(const ir::Loop& loop, const SimSpec& spec);

} // namespace ims::sim

#endif // IMS_SIM_SEQUENTIAL_INTERPRETER_HPP
