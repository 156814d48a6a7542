#include "program/program_compiler.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "codegen/emit.hpp"
#include "graph/graph_builder.hpp"
#include "ir/loop_builder.hpp"
#include "sched/list_scheduler.hpp"
#include "support/error.hpp"
#include "support/telemetry.hpp"

namespace ims::program {

namespace {

using ir::Opcode;

/**
 * Lower a straight-line block to a single-iteration SSA loop body:
 * program variables become versioned virtual registers (reads before any
 * assignment become live-ins named after the variable, later versions
 * get "#n" suffixes), loads/stores carry their fixed element index as
 * the MemRef offset with a symbolic immediate address operand (the
 * simulators address memory through the MemRef, as the loop engines do).
 */
struct LoweredBlock
{
    ir::Loop body;
    /** Final version's program variable per register ("" = none). */
    std::vector<std::string> writeback;
};

LoweredBlock
lowerBlock(const Block& block)
{
    ir::LoopBuilder b(block.name);
    std::map<std::string, std::string> version;
    std::map<std::string, int> versionCount;
    std::map<std::string, std::string> finalVersion;

    const auto readVar = [&](const std::string& var) {
        auto it = version.find(var);
        if (it == version.end()) {
            b.liveIn(var);
            it = version.emplace(var, var).first;
            versionCount[var] = 1;
        }
        return b.reg(it->second);
    };
    const auto operand = [&](const VarOperand& source) {
        return source.isVariable() ? readVar(source.var)
                                   : b.imm(source.immediate);
    };
    const auto defineVar = [&](const std::string& var) {
        int& count = versionCount[var];
        const std::string name =
            count == 0 ? var : var + "#" + std::to_string(count);
        ++count;
        version[var] = name;
        finalVersion[var] = name;
        return name;
    };

    for (const auto& statement : block.statements) {
        // Sources read the versions visible *before* this statement.
        std::vector<ir::Operand> sources;
        sources.reserve(statement.sources.size());
        for (const auto& source : statement.sources)
            sources.push_back(operand(source));

        if (statement.opcode == Opcode::kLoad) {
            b.load(defineVar(statement.dest), statement.array,
                   statement.index, b.imm(0.0), statement.comment);
        } else if (statement.opcode == Opcode::kStore) {
            b.store(statement.array, statement.index, b.imm(0.0),
                    sources[0], statement.comment);
        } else {
            b.op(statement.opcode, defineVar(statement.dest),
                 std::move(sources), statement.comment);
        }
    }

    LoweredBlock lowered{b.build(), {}};
    lowered.writeback.assign(lowered.body.numRegisters(), "");
    for (const auto& [var, reg_name] : finalVersion) {
        for (ir::RegId id = 0; id < lowered.body.numRegisters(); ++id) {
            if (lowered.body.reg(id).name == reg_name)
                lowered.writeback[id] = var;
        }
    }
    return lowered;
}

/** EC/LC initialization statements (see ControlVars). */
void
appendControlStatements(Block& block, const std::string& trip_var,
                        const ControlVars& control, int stage_count)
{
    const double ramp = static_cast<double>(stage_count - 1);
    block.assign(Opcode::kSub, control.scratch, {v(trip_var), c(ramp)},
                 "EC/LC lowering: trip - (SC - 1)");
    block.assign(Opcode::kMax, control.lc, {v(control.scratch), c(0.0)},
                 "LC: steady-state kernel repetitions");
    block.assign(Opcode::kMin, control.ec, {v(trip_var), c(ramp)},
                 "EC: ramp-down repetitions");
}

/** Dense (cycle, resource) occupancy grid. */
class OccupancyGrid
{
  public:
    explicit OccupancyGrid(int num_resources)
        : numResources_(num_resources)
    {
    }

    void
    set(int cycle, machine::ResourceId resource)
    {
        if (cycle >= static_cast<int>(used_.size() / numResources_))
            used_.resize(static_cast<std::size_t>(cycle + 1) *
                             numResources_,
                         false);
        used_[static_cast<std::size_t>(cycle) * numResources_ + resource] =
            true;
    }

    bool
    taken(int cycle, machine::ResourceId resource) const
    {
        if (cycle < 0 ||
            cycle >= static_cast<int>(used_.size() / numResources_))
            return false;
        return used_[static_cast<std::size_t>(cycle) * numResources_ +
                     resource];
    }

    int
    cycleSpan() const
    {
        return static_cast<int>(used_.size() / numResources_);
    }

  private:
    int numResources_;
    std::vector<bool> used_;
};

const machine::ReservationTable&
tableOf(const machine::MachineModel& machine, const ir::Operation& op,
        int alternative)
{
    return machine.info(op.opcode).alternatives[alternative].table;
}

/** Absolute occupancy of a scheduled block (issue tails included). */
OccupancyGrid
blockOccupancy(const CompiledBlock& block,
               const machine::MachineModel& machine)
{
    OccupancyGrid grid(machine.numResources());
    for (const auto& op : block.body.operations()) {
        const auto& table =
            tableOf(machine, op, block.alternatives[op.id]);
        for (const auto& use : table.uses())
            grid.set(block.times[op.id] + use.time, use.resource);
    }
    return grid;
}

/** Hazard sets controlling which block ops may enter an overlap region. */
struct MarshalHazards
{
    std::set<std::string> loopVars;  // live-in / seed / trip variables
    std::set<std::string> outputVars;
    std::set<std::string> loopArrays;
    const ControlVars* control = nullptr;
};

MarshalHazards
hazardsOf(const Program& program, const ControlVars& control)
{
    MarshalHazards hazards;
    const auto& loop = program.loop;
    for (ir::RegId id = 0; id < loop.body.numRegisters(); ++id) {
        if (loop.body.reg(id).isLiveIn)
            hazards.loopVars.insert(loop.liveInVar(loop.body.reg(id).name));
    }
    for (const auto& [reg, vars] : loop.seedBindings)
        hazards.loopVars.insert(vars.begin(), vars.end());
    hazards.loopVars.insert(loop.tripVar);
    for (const auto& [var, reg] : loop.outputs)
        hazards.outputVars.insert(var);
    if (!loop.itersVar.empty())
        hazards.outputVars.insert(loop.itersVar);
    for (const auto& name : program.loopAccessedArrays())
        hazards.loopArrays.insert(name);
    hazards.control = &control;
    return hazards;
}

/**
 * Prologue compression: merge the last k cycles of the final pre-loop
 * block with the first k ramp-up cycles. Legal when every block
 * operation issuing in the overlap
 *  - touches no array the loop accesses (one shared memory on real
 *    hardware: the split-domain executor would otherwise hide a hazard),
 *  - writes back no variable the loop marshals in (live-ins, seeds,
 *    trip count — the marshal happens at the overlap start),
 *  - if it defines an EC/LC control variable, completes before the
 *    steady-state phase needs the value,
 * and no block resource use collides with a ramp-up reservation (ramp-up
 * repetition r statically issues only stages <= r) or spills past the
 * ramp into the steady-state kernel.
 */
int
prologueOverlapDepth(const CompiledProgram& cp,
                     const machine::MachineModel& machine,
                     const MarshalHazards& hazards)
{
    if (cp.pre.empty())
        return 0;
    const CompiledBlock& block = cp.pre.back();
    const auto& kernel = cp.loop.code.kernel;
    const int ii = kernel.ii;
    const int ramp = cp.rampCycles();
    const int n = block.cycleCount;
    if (ramp == 0 || n == 0)
        return 0;

    OccupancyGrid loopOcc(machine.numResources());
    for (int rep = 0; rep < kernel.stageCount - 1; ++rep) {
        for (const auto& placement : kernel.placements) {
            if (placement.stage > rep)
                continue; // statically dead in ramp-up repetition `rep`
            const int issue = rep * ii + placement.slot;
            const auto& table =
                tableOf(machine,
                        cp.source.loop.body.operation(placement.op),
                        placement.alternative);
            for (const auto& use : table.uses())
                loopOcc.set(issue + use.time, use.resource);
        }
    }
    const OccupancyGrid blockOcc = blockOccupancy(block, machine);

    const auto opAllowed = [&](const ir::Operation& op, int merged_cycle) {
        if (op.memRef &&
            hazards.loopArrays.count(
                block.body.arrays()[op.memRef->array].name))
            return false;
        if (!op.hasDest())
            return true;
        const std::string& wb = block.writeback[op.dest];
        if (wb.empty())
            return true;
        if (hazards.loopVars.count(wb))
            return false;
        if (wb == hazards.control->lc || wb == hazards.control->ec ||
            wb == hazards.control->scratch) {
            // Control values gate the steady-state phase: ready by then.
            return merged_cycle + machine.latency(op.opcode) <= ramp;
        }
        return true;
    };

    for (int k = std::min(n, ramp); k >= 1; --k) {
        bool feasible = true;
        for (const auto& op : block.body.operations()) {
            if (block.times[op.id] < n - k)
                continue;
            if (!opAllowed(op, block.times[op.id] - (n - k))) {
                feasible = false;
                break;
            }
        }
        for (int t = n - k; feasible && t < blockOcc.cycleSpan(); ++t) {
            const int merged = t - (n - k);
            for (machine::ResourceId r = 0;
                 feasible && r < machine.numResources(); ++r) {
                if (!blockOcc.taken(t, r))
                    continue;
                // Spilling past the ramp would collide with the steady
                // kernel; inside the ramp, with its reservations.
                if (merged >= ramp || loopOcc.taken(merged, r))
                    feasible = false;
            }
        }
        if (feasible)
            return k;
    }
    return 0;
}

/**
 * Epilogue compression: merge the first k cycles of the first post-loop
 * block with the last k ramp-down cycles. The ramp-down length is
 * trip-dependent ($ec repetitions), so k is restricted to whole kernel
 * repetitions (multiples of II): the merged block cycles then keep the
 * same kernel-row alignment at every trip and one modulo occupancy test
 * (the full kernel row pattern, a superset of every drain repetition)
 * covers all of them. Overlapped block ops must not read or write the
 * loop's outputs/iteration count (marshaled out at the drain's end) nor
 * touch any loop-accessed array.
 */
int
epilogueOverlapDepth(const CompiledProgram& cp,
                     const machine::MachineModel& machine,
                     const MarshalHazards& hazards)
{
    if (cp.post.empty())
        return 0;
    const CompiledBlock& block = cp.post.front();
    const auto& kernel = cp.loop.code.kernel;
    const int ii = kernel.ii;
    const int ramp = cp.rampCycles();
    const int n = block.cycleCount;
    if (ramp == 0 || n == 0)
        return 0;

    const OccupancyGrid blockOcc = blockOccupancy(block, machine);

    const auto opAllowed = [&](const ir::Operation& op) {
        if (op.memRef &&
            hazards.loopArrays.count(
                block.body.arrays()[op.memRef->array].name))
            return false;
        for (const auto& source : op.sources) {
            if (source.isRegister() &&
                block.body.definingOp(source.reg) < 0 &&
                hazards.outputVars.count(block.body.reg(source.reg).name))
                return false;
        }
        if (op.hasDest() && !block.writeback[op.dest].empty() &&
            hazards.outputVars.count(block.writeback[op.dest]))
            return false;
        return true;
    };

    const int sc = kernel.stageCount;
    const int maxReps = std::min(sc - 1, n / ii);
    for (int reps = maxReps; reps >= 1; --reps) {
        const int k = reps * ii;
        bool feasible = true;
        for (const auto& op : block.body.operations()) {
            if (block.times[op.id] < k && !opAllowed(op)) {
                feasible = false;
                break;
            }
        }
        // Resource legality against the draining kernel. The drain's
        // repetitions progressively turn stages off: the repetition at
        // distance j from the drain's end only issues operations of
        // stage >= sc-1-j (the stage predicates have retired everything
        // younger). A kernel use issued at slot `s` in that repetition
        // lands on post-block cycle (reps_eff-j-1)*ii + s + use.time
        // when the runtime overlap is reps_eff repetitions; the clamp
        // reps_eff = min(reps, ec) means every value from 1 to reps can
        // occur, and spills from repetitions before the window (j >=
        // reps_eff) can still reach into it, so all j up to sc-2 are
        // checked.
        for (const auto& placement : kernel.placements) {
            if (!feasible)
                break;
            const auto& table = tableOf(
                machine, cp.source.loop.body.operation(placement.op),
                placement.alternative);
            for (int reps_eff = 1; feasible && reps_eff <= reps;
                 ++reps_eff) {
                for (int j = sc - 1 - placement.stage;
                     feasible && j <= sc - 2; ++j) {
                    const int base =
                        (reps_eff - j - 1) * ii + placement.slot;
                    for (const auto& use : table.uses()) {
                        const int t = base + use.time;
                        if (t >= 0 && t < blockOcc.cycleSpan() &&
                            blockOcc.taken(t, use.resource)) {
                            feasible = false;
                            break;
                        }
                    }
                }
            }
        }
        if (feasible)
            return k;
    }
    return 0;
}

CompiledBlock
scheduleLoweredBlock(const Block& block,
                     const machine::MachineModel& machine)
{
    LoweredBlock lowered = lowerBlock(block);
    const graph::DepGraph graph =
        graph::buildDepGraph(lowered.body, machine);
    const sched::ListScheduleResult schedule =
        sched::listSchedule(lowered.body, machine, graph);

    CompiledBlock compiled;
    compiled.name = block.name;
    compiled.body = std::move(lowered.body);
    compiled.writeback = std::move(lowered.writeback);
    compiled.times = schedule.times;
    compiled.alternatives = schedule.alternatives;
    compiled.cycleCount = schedule.scheduleLength;

    int last = 0;
    for (const auto& op : compiled.body.operations())
        last = std::max(last, compiled.times[op.id] + 1);
    compiled.cycles.assign(
        std::max(compiled.cycleCount, last), {});
    for (const auto& op : compiled.body.operations())
        compiled.cycles[compiled.times[op.id]].push_back(op.id);
    compiled.cycleCount = static_cast<int>(compiled.cycles.size());
    return compiled;
}

core::Diagnostic
errorDiagnostic(const std::string& phase, const std::exception& error)
{
    core::Diagnostic diagnostic;
    diagnostic.severity = core::Diagnostic::Severity::kError;
    diagnostic.phase = phase;
    diagnostic.message = error.what();
    if (const auto* coded =
            dynamic_cast<const support::CodedError*>(&error)) {
        diagnostic.code = coded->code();
    } else {
        diagnostic.code = "error." + phase;
    }
    return diagnostic;
}

} // namespace

int
CompiledProgram::rampCycles() const
{
    return (loop.code.kernel.stageCount - 1) * loop.code.kernel.ii;
}

long long
CompiledProgram::naiveCycles(int trip) const
{
    long long blocks = 0;
    for (const auto& block : pre)
        blocks += block.cycleCount;
    for (const auto& block : post)
        blocks += block.cycleCount;
    if (loop.isWhile) {
        // Flat-schedule model (PipelineResult::cycles) at the trip bound.
        const long long loop_cycles =
            trip <= 0 ? 0
                      : static_cast<long long>(trip - 1) *
                                loop.code.kernel.ii +
                            loop.schedule.scheduleLength;
        return blocks + loop_cycles;
    }
    const int sc = loop.code.kernel.stageCount;
    const long long lc = std::max(0, trip - (sc - 1));
    const long long ec = std::min(trip, sc - 1);
    return blocks + (sc - 1 + lc + ec) * loop.code.kernel.ii;
}

long long
CompiledProgram::compiledCycles(int trip) const
{
    long long total = naiveCycles(trip);
    if (loop.isWhile)
        return total;
    const long long ec = std::min(trip, loop.code.kernel.stageCount - 1);
    total -= prologueOverlap;
    total -= std::min<long long>(epilogueOverlap,
                                 ec * loop.code.kernel.ii);
    return total;
}

std::string
ProgramCompileResult::firstError() const
{
    for (const auto& diagnostic : diagnostics) {
        if (diagnostic.severity == core::Diagnostic::Severity::kError)
            return diagnostic.message;
    }
    return "";
}

std::string
ProgramCompileResult::toJson() const
{
    std::ostringstream out;
    const auto& name =
        compiled ? compiled->source.name : std::string("<failed>");
    out << "{\"program\":" << support::jsonString(name) << ",\"ok\":"
        << (ok() ? "true" : "false");
    if (compiled) {
        long long pre_cycles = 0;
        long long post_cycles = 0;
        for (const auto& block : compiled->pre)
            pre_cycles += block.cycleCount;
        for (const auto& block : compiled->post)
            post_cycles += block.cycleCount;
        out << ",\"scheduler\":"
            << support::jsonString(compiled->loop.scheduler)
            << ",\"ii\":" << compiled->loop.code.kernel.ii
            << ",\"mii\":" << compiled->loop.mii
            << ",\"stages\":" << compiled->loop.code.kernel.stageCount
            << ",\"while\":" << (compiled->loop.isWhile ? "true" : "false")
            << ",\"pre_cycles\":" << pre_cycles
            << ",\"post_cycles\":" << post_cycles
            << ",\"prologue_overlap\":" << compiled->prologueOverlap
            << ",\"epilogue_overlap\":" << compiled->epilogueOverlap
            << ",\"naive_cycles_17\":" << compiled->naiveCycles(17)
            << ",\"compiled_cycles_17\":" << compiled->compiledCycles(17);
    }
    out << ",\"errors\":";
    int errors = 0;
    for (const auto& diagnostic : diagnostics) {
        if (diagnostic.severity == core::Diagnostic::Severity::kError)
            ++errors;
    }
    out << errors << "}";
    return out.str();
}

ProgramCompiler::ProgramCompiler(machine::MachineModel machine,
                                 ProgramOptions options)
    : machine_(std::move(machine)), options_(std::move(options))
{
}

ProgramCompileResult
ProgramCompiler::compile(const Program& program) const
{
    ProgramCompileResult result;
    try {
        program.validate();
    } catch (const std::exception& error) {
        result.diagnostics.push_back(
            errorDiagnostic("program_validate", error));
        return result;
    }

    const bool is_while = program.loop.body.hasEarlyExit();

    // (b) The loop section through the full pipeliner: the selected
    // SchedulerStrategy under the Figure-2 II walk.
    const core::SoftwarePipeliner pipeliner(machine_, options_.pipeline);
    core::PipelineResult loop_result =
        pipeliner.pipeline(core::PipelineRequest(program.loop.body));
    result.loopTelemetry = loop_result.telemetry;

    SectionReport loop_report;
    loop_report.name = program.loop.body.name();
    loop_report.kind = "loop";
    loop_report.ops = program.loop.body.size();
    loop_report.diagnostics = loop_result.diagnostics;
    for (const auto& diagnostic : loop_result.diagnostics)
        result.diagnostics.push_back(diagnostic);

    bool ok = loop_result.ok();
    CompiledProgram cp{program};
    if (ok) {
        const auto& artifacts = *loop_result.artifacts;
        cp.loop.schedule = artifacts.outcome.schedule;
        cp.loop.code = artifacts.code;
        cp.loop.isWhile = is_while;
        cp.loop.scheduler = artifacts.outcome.scheduler;
        cp.loop.mii = artifacts.outcome.mii;
        cp.loop.resMii = artifacts.outcome.resMii;
        loop_report.ii = cp.loop.code.kernel.ii;
        loop_report.stageCount = cp.loop.code.kernel.stageCount;
        loop_report.cycles = cp.loop.code.kernel.ii;
    }

    // (a) Straight-line sections, with (c) the EC/LC loop-control
    // initialization lowered into the final pre-loop block.
    std::vector<Block> pre_blocks = program.preBlocks;
    if (ok && !is_while) {
        if (pre_blocks.empty())
            pre_blocks.emplace_back("loop.control");
        appendControlStatements(pre_blocks.back(), program.loop.tripVar,
                                cp.control, cp.loop.code.kernel.stageCount);
    }

    std::vector<SectionReport> pre_reports;
    std::vector<SectionReport> post_reports;
    const auto compileBlocks = [&](const std::vector<Block>& blocks,
                                   const std::string& kind,
                                   std::vector<CompiledBlock>& compiled,
                                   std::vector<SectionReport>& reports) {
        for (const auto& block : blocks) {
            SectionReport report;
            report.name = block.name;
            report.kind = kind;
            report.ops = static_cast<int>(block.statements.size());
            try {
                compiled.push_back(scheduleLoweredBlock(block, machine_));
                report.cycles = compiled.back().cycleCount;
            } catch (const std::exception& error) {
                const auto diagnostic =
                    errorDiagnostic("block_compile", error);
                report.diagnostics.push_back(diagnostic);
                result.diagnostics.push_back(diagnostic);
                ok = false;
            }
            reports.push_back(std::move(report));
        }
    };
    compileBlocks(pre_blocks, "pre-block", cp.pre, pre_reports);
    compileBlocks(program.postBlocks, "post-block", cp.post, post_reports);

    if (ok) {
        cp.writtenArrays = program.loopWrittenArrays();
        // (c) Pipeline compression into the adjacent blocks.
        if (options_.compress && !is_while) {
            const MarshalHazards hazards = hazardsOf(program, cp.control);
            cp.prologueOverlap =
                prologueOverlapDepth(cp, machine_, hazards);
            cp.epilogueOverlap =
                epilogueOverlapDepth(cp, machine_, hazards);
        }
        result.compiled = std::move(cp);
    }

    result.sections = std::move(pre_reports);
    result.sections.push_back(std::move(loop_report));
    for (auto& report : post_reports)
        result.sections.push_back(std::move(report));
    return result;
}

CompiledBlock
compileBlock(const Block& block, const machine::MachineModel& machine)
{
    return scheduleLoweredBlock(block, machine);
}

std::string
emitProgram(const CompiledProgram& compiled)
{
    std::ostringstream out;
    out << "program " << compiled.source.name << "\n";
    const auto renderBlock = [&](const CompiledBlock& block) {
        out << "block " << block.name << "  ; " << block.cycleCount
            << " cycles\n";
        for (std::size_t cycle = 0; cycle < block.cycles.size(); ++cycle) {
            out << "  " << cycle << ":";
            if (block.cycles[cycle].empty())
                out << "  nop";
            for (const ir::OpId op : block.cycles[cycle]) {
                out << "  "
                    << block.body.operationToString(
                           block.body.operation(op));
            }
            out << "\n";
        }
    };
    for (std::size_t i = 0; i < compiled.pre.size(); ++i) {
        renderBlock(compiled.pre[i]);
        if (i + 1 == compiled.pre.size() && compiled.prologueOverlap > 0) {
            out << "  ; last " << compiled.prologueOverlap
                << " cycles overlap the ramp-up (compressed)\n";
        }
    }
    out << "loop  ; II " << compiled.loop.code.kernel.ii << ", "
        << compiled.loop.code.kernel.stageCount << " stages"
        << (compiled.loop.isWhile ? ", early exit (ESC schema)" : "")
        << "\n";
    out << codegen::emitKernelOnly(compiled.source.loop.body,
                                   compiled.loop.code);
    for (std::size_t i = 0; i < compiled.post.size(); ++i) {
        if (i == 0 && compiled.epilogueOverlap > 0) {
            out << "  ; first " << compiled.epilogueOverlap
                << " cycles overlap the ramp-down (compressed)\n";
        }
        renderBlock(compiled.post[i]);
    }
    return out.str();
}

} // namespace ims::program
