#ifndef IMS_PROGRAM_PROGRAM_EXECUTOR_HPP
#define IMS_PROGRAM_PROGRAM_EXECUTOR_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/pipeliner.hpp"
#include "program/program.hpp"
#include "program/program_compiler.hpp"
#include "sim/value.hpp"

namespace ims::program {

/**
 * Input state for running a whole program: the trip count, every input
 * variable's value (see Program::inputVariables), and initial array
 * contents as (first logical index, values) spans.
 */
struct ProgramSpec
{
    int trip = 16;
    std::map<std::string, sim::Value> variables;
    std::map<std::string, std::pair<int, std::vector<sim::Value>>> arrays;
};

/**
 * Final architectural state of a program run: every program variable
 * (compiler-internal '$' control variables stripped) and every array as
 * a sparse cell map (absent cells read as 0.0, like unwritten memory).
 */
struct ProgramState
{
    std::map<std::string, sim::Value> variables;
    std::map<std::string, std::map<int, sim::Value>> arrays;
    /** Iterations the loop section entered (trip, or the exit point). */
    int loopIterations = 0;
};

/**
 * Reference semantics: blocks statement by statement in program order,
 * the loop section via sim::runSequential with the marshaling model of
 * LoopSection (live-in/seed bindings in, written arrays and outputs
 * out). The gold standard the compiled execution must match bit for bit.
 *
 * @throws support::Error on invalid programs or missing input variables.
 */
ProgramState runProgramSequential(const Program& program,
                                  const ProgramSpec& spec);

/**
 * Execute the compiled program the way the emitted machine code would
 * run: scheduled block cycles in issue order, then the pipelined loop
 * under EC/LC control — SC-1 ramp-up kernel repetitions under stage
 * predicates, $lc steady-state repetitions, $ec ramp-down repetitions —
 * with the compressed prologue/epilogue cycles interleaved with the
 * adjacent blocks' overlap cycles. The $lc/$ec values are read from the
 * program variables the lowered pre-loop statements computed: the
 * control lowering is executed, not assumed. WHILE-loops run the flat
 * schedule (sim::runPipelined) instead, compression off.
 *
 * @throws support::Error on inconsistent compiled programs.
 */
ProgramState runProgramCompiled(const CompiledProgram& compiled,
                                const ProgramSpec& spec);

/**
 * Random-but-deterministic input state for `program` at `trip`,
 * mirroring workloads::makeSimSpec: every input variable uniform in
 * [-2, 2) (variables feeding predicate live-ins get 0.0), every array
 * filled over the full simulated range.
 */
ProgramSpec makeProgramSpec(const Program& program, int trip,
                            std::uint64_t seed);

/**
 * First difference between two final states, "" when equivalent
 * (NaN-tolerant; absent cells read as 0.0).
 */
std::string describeStateDifference(const ProgramState& a,
                                    const ProgramState& b);

/**
 * The program-level equivalence oracle: compile `program` with
 * `options`, and for each trip count run the sequential reference
 * against the compiled execution on makeProgramSpec inputs. Returns one
 * kError diagnostic per divergence ("program.mismatch"), engine failure
 * ("program.error"), or compile failure (the compiler's own codes);
 * empty means equivalent everywhere.
 */
std::vector<core::Diagnostic>
programEquivalenceDiagnostics(const Program& program,
                              const machine::MachineModel& machine,
                              const ProgramOptions& options,
                              const std::vector<int>& trips,
                              std::uint64_t seed);

} // namespace ims::program

#endif // IMS_PROGRAM_PROGRAM_EXECUTOR_HPP
