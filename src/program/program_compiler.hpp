#ifndef IMS_PROGRAM_PROGRAM_COMPILER_HPP
#define IMS_PROGRAM_PROGRAM_COMPILER_HPP

#include <optional>
#include <string>
#include <vector>

#include "codegen/code_generator.hpp"
#include "core/pipeliner.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"
#include "program/program.hpp"

namespace ims::program {

/**
 * A straight-line block after lowering and scheduling: the block's
 * statements as a single-iteration SSA loop body (variables renamed to
 * versioned virtual registers, reads-before-write turned into live-ins
 * named after their program variable), the resource-aware list schedule
 * over it, and the write-back map restoring final register values to
 * program variables.
 */
struct CompiledBlock
{
    std::string name;
    /** Lowered single-iteration body (validated, topologically ordered). */
    ir::Loop body{std::string()};
    /** Issue time / chosen machine alternative per operation. */
    std::vector<int> times;
    std::vector<int> alternatives;
    /** Operations issuing at each cycle, in op order. */
    std::vector<std::vector<ir::OpId>> cycles;
    /** Cycles until the block completes (list schedule length). */
    int cycleCount = 0;
    /**
     * Per register: the program variable receiving this register's value
     * ("" for intermediate versions and live-ins). Only the final version
     * of an assigned variable writes back.
     */
    std::vector<std::string> writeback;
};

/**
 * The compiled loop section: the modulo-schedule outcome and the code
 * pipeline() generated for it, whose kernel section, each instance under
 * its stage predicate, is the body the EC/LC execution schema repeats
 * (the [36] schema). WHILE-loops keep the flat schedule and are executed
 * by the pipeline simulator (counted loop control does not apply; see
 * docs/PROGRAM.md).
 */
struct CompiledLoop
{
    sched::ScheduleResult schedule;
    codegen::GeneratedCode code;
    bool isWhile = false;
    /** Scheduler backend identity and MII statistics. */
    std::string scheduler;
    int mii = 1;
    int resMii = 1;
};

/**
 * Compiler-chosen control-variable names. The EC/LC initialization is
 * lowered into the last pre-loop block as ordinary statements:
 *
 *   $lc = max(tripVar - (SC - 1), 0)   — steady-state kernel repetitions
 *   $ec = min(tripVar, SC - 1)         — ramp-down (drain) repetitions
 *
 * so prologue (SC-1 repetitions) + $lc + $ec = trip + SC - 1 kernel
 * repetitions in total, the [36] iteration-count identity. The program
 * executor's steady phase runs exactly $lc unpredicated repetitions and
 * its ramp-down exactly $ec predicated ones — the lowered values are
 * load-bearing, not decorative.
 */
struct ControlVars
{
    std::string lc = "$lc";
    std::string ec = "$ec";
    std::string scratch = "$t0";
};

/** One fully compiled program, executable by program::runProgramCompiled
 *  (program/program_executor.hpp). */
struct CompiledProgram
{
    explicit CompiledProgram(Program program)
        : source(std::move(program))
    {
    }

    /** The source program (without the synthesized control statements). */
    Program source;
    /** Pre-loop blocks; the last one carries the EC/LC initialization. */
    std::vector<CompiledBlock> pre;
    CompiledLoop loop;
    std::vector<CompiledBlock> post;
    ControlVars control;
    /**
     * Pipeline compression (§1's "overlapping the prologue and epilogue
     * with adjacent blocks"): the last `prologueOverlap` cycles of the
     * final pre-loop block issue together with the first ramp-up cycles,
     * and the first `epilogueOverlap` cycles of the first post-loop
     * block issue together with the last ramp-down cycles. 0 = none.
     */
    int prologueOverlap = 0;
    int epilogueOverlap = 0;

    /** Names of arrays the loop writes (marshaled back after the loop). */
    std::vector<std::string> writtenArrays;

    /** Ramp-up length in cycles: (SC - 1) * II. */
    int rampCycles() const;

    /**
     * Total execution cycles at `trip` under the EC/LC model with
     * compression applied: blocks + (SC-1 + $lc + $ec) * II - overlaps.
     */
    long long compiledCycles(int trip) const;

    /** Same without compression (prologue/epilogue fully sequential). */
    long long naiveCycles(int trip) const;
};

/** Per-section compilation report. */
struct SectionReport
{
    std::string name;
    /** "pre-block", "loop" or "post-block". */
    std::string kind;
    int ops = 0;
    int cycles = 0;
    /** Loop sections only. */
    int ii = 0;
    int stageCount = 0;
    std::vector<core::Diagnostic> diagnostics;
};

/** Options for the end-to-end program driver. */
struct ProgramOptions
{
    /** Loop-section scheduling options (full strategy stack). */
    core::PipelinerOptions pipeline;
    /** Overlap prologue/epilogue with adjacent blocks when legal. */
    bool compress = true;

    ProgramOptions&
    withPipeline(core::PipelinerOptions options)
    {
        pipeline = std::move(options);
        return *this;
    }

    ProgramOptions&
    withCompression(bool enabled)
    {
        compress = enabled;
        return *this;
    }
};

/**
 * Result of compiling one program. Input problems surface as kError
 * diagnostics (with `compiled` empty), never as exceptions, mirroring
 * core::PipelineResult.
 */
struct ProgramCompileResult
{
    std::optional<CompiledProgram> compiled;
    std::vector<SectionReport> sections;
    /** Program-level diagnostics (section diagnostics are also here). */
    std::vector<core::Diagnostic> diagnostics;
    /** Loop-section pipeline telemetry (phases, II vs MII, budget). */
    support::PipelineTelemetry loopTelemetry;

    bool ok() const { return compiled.has_value(); }

    /** First kError message, or "" when compilation succeeded. */
    std::string firstError() const;

    /** Deterministic one-line JSON telemetry summary for the program. */
    std::string toJson() const;
};

/**
 * The end-to-end driver (the compilation flow of §1): list-schedule the
 * straight-line sections, modulo-schedule the loop with the selected
 * SchedulerStrategy under the Figure-2 II walk, lower the counted-loop
 * control to EC/LC initialization statements in the pre-loop block,
 * assign stage predicates for ramp-up/ramp-down, and compress the
 * pipeline into the adjacent blocks where the reservation tables and the
 * marshaling hazards allow.
 */
class ProgramCompiler
{
  public:
    explicit ProgramCompiler(machine::MachineModel machine,
                             ProgramOptions options = {});

    const machine::MachineModel& machine() const { return machine_; }
    const ProgramOptions& options() const { return options_; }

    /** Compile `program`. Never throws for bad input. */
    ProgramCompileResult compile(const Program& program) const;

  private:
    machine::MachineModel machine_;
    ProgramOptions options_;
};

/**
 * Lower one straight-line block to its scheduled form (exposed for
 * tests; the compiler applies it to every block).
 *
 * @throws support::Error for statements the machine cannot execute.
 */
CompiledBlock compileBlock(const Block& block,
                           const machine::MachineModel& machine);

/** Assembly-style listing of the whole compiled program. */
std::string emitProgram(const CompiledProgram& compiled);

} // namespace ims::program

#endif // IMS_PROGRAM_PROGRAM_COMPILER_HPP
