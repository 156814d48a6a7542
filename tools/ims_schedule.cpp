/**
 * @file
 * ims-schedule: command-line driver for the library. Reads loops in the
 * textual mini-IR format and modulo-schedules them.
 *
 * Usage:
 *   ims-schedule [options] <file.ir | ->...
 *   ims-schedule [options] --kernel <name>...
 *   ims-schedule [options] --program <name|all>...
 *   ims-schedule --list-kernels
 *
 * Options:
 *   --machine cydra5|clean64|wide-vliw|scalar-toy   (default cydra5)
 *   --scheduler iterative|slack|exact   scheduling backend (default
 *                            iterative; exact is the branch-and-bound
 *                            optimality prover)
 *   --exact-budget <n>       exact-backend node budget per candidate II
 *   --budget-ratio <r>       BudgetRatio (default 2.0; the paper's
 *                            quality studies use 6)
 *   --priority heightr|slack|source-order|random    (default heightr)
 *   --listing                print the full prologue/kernel/epilogue
 *   --kernel-only            print the [36] kernel-only schema instead
 *   --trace                  print the per-step scheduling trace
 *   --telemetry              print the per-loop telemetry record as JSON
 *   --simulate <trip>        validate against the sequential semantics;
 *                            a trip whose simulated arrays would hold
 *                            more than sim::kMaxSimulatedValues (2^22)
 *                            values answers sim.too_large, exit 1
 *   --verify                 run the full verification stack (structural
 *                            schedule check + sim-equivalence oracle over
 *                            several trip counts) and report violations
 *                            as structured diagnostics
 *   --quiet                  one summary line per loop only
 *   --no-compress            disable pipeline compression (--program)
 *
 * A malformed or out-of-range number for any numeric option is a usage
 * error: the option is named on stderr and the exit status is 2.
 *
 * With --program, the named corpus program (or every program with
 * "all") goes through the whole-program driver: list-scheduled blocks,
 * the modulo-scheduled loop under EC/LC control, and pipeline
 * compression. --listing prints the linear program, --verify runs the
 * compiled-vs-sequential equivalence oracle at several trip counts.
 */
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/emit.hpp"
#include "core/pipeliner.hpp"
#include "core/report.hpp"
#include "ir/parser.hpp"
#include "machine/machines.hpp"
#include "program/program_compiler.hpp"
#include "program/program_executor.hpp"
#include "sched/attempt.hpp"
#include "sched/priority.hpp"
#include "sim/pipeline_simulator.hpp"
#include "sim/sequential_interpreter.hpp"
#include "support/parse_number.hpp"
#include "workloads/kernels.hpp"
#include "workloads/programs.hpp"

namespace {

using namespace ims;

struct CliOptions
{
    std::string machine = "cydra5";
    std::string scheduler = "iterative";
    std::int64_t exactBudget = sched::kDefaultExactNodeBudget;
    double budgetRatio = 2.0;
    std::string priority = "heightr";
    bool listing = false;
    bool kernelOnly = false;
    bool trace = false;
    bool telemetry = false;
    bool verify = false;
    int simulateTrip = 0;
    bool quiet = false;
    bool listKernels = false;
    bool compress = true;
    std::vector<std::string> files;
    std::vector<std::string> kernels;
    std::vector<std::string> programs;
};

[[noreturn]] void
usage(int code)
{
    std::cerr
        << "usage: ims-schedule [options] <file.ir|->... | --kernel "
           "<name>... | --program <name|all>... | --list-kernels\n"
           "  --machine cydra5|clean64|wide-vliw|scalar-toy\n"
           "  --scheduler iterative|slack|exact  --exact-budget <n>\n"
           "  --budget-ratio <r>   --priority "
           "heightr|slack|source-order|random\n"
           "  --listing  --kernel-only  --trace  --telemetry  "
           "--simulate <trip>  --verify  --quiet  --no-compress\n";
    std::exit(code);
}

CliOptions
parseArgs(int argc, char** argv)
{
    CliOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char* what) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " requires " << what << "\n";
                usage(2);
            }
            return argv[++i];
        };
        if (arg == "--machine")
            options.machine = next("a machine name");
        else if (arg == "--scheduler")
            options.scheduler = next("a backend name");
        else if (arg == "--exact-budget")
            options.exactBudget = support::numberArg<std::int64_t>(
                arg, next("a node budget"));
        else if (arg == "--budget-ratio")
            options.budgetRatio =
                support::numberArg<double>(arg, next("a ratio"));
        else if (arg == "--priority")
            options.priority = next("a scheme");
        else if (arg == "--listing")
            options.listing = true;
        else if (arg == "--kernel-only")
            options.kernelOnly = true;
        else if (arg == "--trace")
            options.trace = true;
        else if (arg == "--telemetry")
            options.telemetry = true;
        else if (arg == "--simulate")
            options.simulateTrip =
                support::numberArg<int>(arg, next("a trip count"));
        else if (arg == "--verify")
            options.verify = true;
        else if (arg == "--quiet")
            options.quiet = true;
        else if (arg == "--list-kernels")
            options.listKernels = true;
        else if (arg == "--kernel")
            options.kernels.push_back(next("a kernel name"));
        else if (arg == "--program")
            options.programs.push_back(next("a program name"));
        else if (arg == "--no-compress")
            options.compress = false;
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            std::cerr << "unknown option '" << arg << "'\n";
            usage(2);
        } else
            options.files.push_back(arg);
    }
    return options;
}

std::string
readFile(const std::string& path)
{
    if (path == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        return buffer.str();
    }
    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open " << path << "\n";
        std::exit(1);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/**
 * The pipeline options every loop and program runs with. Resolves the
 * backend and priority names, and exits with status 2 on an unknown one.
 */
core::PipelinerOptions
pipelineOptions(const CliOptions& options)
{
    const auto strategy =
        sched::schedulerStrategyByName(options.scheduler);
    if (!strategy) {
        std::cerr << "unknown scheduler backend '" << options.scheduler
                  << "'\n";
        usage(2);
    }
    core::PipelinerOptions pipeline_options;
    pipeline_options.schedule.search.budgetRatio = options.budgetRatio;
    pipeline_options.withScheduler(*strategy)
        .withExactNodeBudget(options.exactBudget);
    const auto priority = sched::prioritySchemeByName(options.priority);
    if (!priority) {
        std::cerr << "unknown priority '" << options.priority << "'\n";
        usage(2);
    }
    pipeline_options.schedule.priority = *priority;
    return pipeline_options;
}

int
processLoop(const ir::Loop& loop, const CliOptions& options,
            core::PipelinerOptions pipeline_options,
            const machine::MachineModel& machine)
{
    if (options.verify)
        pipeline_options.withSimVerification(true);
    std::vector<sched::TraceEvent> trace;
    if (options.trace)
        pipeline_options.schedule.trace = &trace;

    core::SoftwarePipeliner pipeliner(machine, pipeline_options);
    const auto result = pipeliner.pipeline(core::PipelineRequest(loop));
    if (!result.ok()) {
        for (const auto& diagnostic : result.diagnostics) {
            std::cerr << loop.name() << ": "
                      << (diagnostic.severity ==
                                  core::Diagnostic::Severity::kError
                              ? "error"
                              : "warning")
                      << " [" << diagnostic.phase << "]";
            if (!diagnostic.code.empty())
                std::cerr << " <" << diagnostic.code << ">";
            std::cerr << ": " << diagnostic.message << "\n";
        }
        return 1;
    }
    const auto& artifacts = *result.artifacts;

    if (options.quiet) {
        std::cout << core::summaryLine(loop, artifacts) << "\n";
    } else {
        std::cout << core::report(loop, machine, artifacts) << "\n";
    }
    if (options.trace) {
        std::cout << "scheduling trace (" << trace.size() << " steps):\n";
        for (const auto& e : trace) {
            std::cout << "  step " << e.step << ": op " << e.op
                      << " Estart=" << e.estart << " -> t=" << e.slot
                      << (e.forced ? " (forced)" : "") << "\n";
        }
    }
    if (options.telemetry) {
        std::cout << result.telemetry.toJson() << "\n";
    }
    if (options.listing) {
        std::cout << codegen::emitListing(loop, artifacts.code,
                                          artifacts.registers);
    }
    if (options.kernelOnly)
        std::cout << codegen::emitKernelOnly(loop, artifacts.code);
    if (options.verify) {
        std::cout << "verification: structural check and sim-equivalence "
                     "oracle passed\n";
    }
    if (options.simulateTrip > 0) {
        const auto spec =
            workloads::makeSimSpec(loop, options.simulateTrip, 1);
        const auto seq = sim::runSequential(loop, spec);
        const auto pipe =
            sim::runPipelined(loop, artifacts.outcome.schedule, spec);
        const bool ok = sim::equivalent(seq, pipe.state);
        std::cout << "simulation over " << options.simulateTrip
                  << " iterations: "
                  << (ok ? "pipelined == sequential"
                         : "MISMATCH (library bug)")
                  << "\n";
        if (!ok)
            return 1;
    }
    return 0;
}

int
processProgram(const program::Program& prog, const CliOptions& options,
               const core::PipelinerOptions& pipeline_options,
               const machine::MachineModel& machine)
{
    const auto program_options = program::ProgramOptions{}
                                     .withPipeline(pipeline_options)
                                     .withCompression(options.compress);

    const program::ProgramCompiler compiler(machine, program_options);
    const auto result = compiler.compile(prog);
    if (!result.ok()) {
        for (const auto& diagnostic : result.diagnostics) {
            if (diagnostic.severity != core::Diagnostic::Severity::kError)
                continue;
            std::cerr << prog.name << ": error [" << diagnostic.phase
                      << "]";
            if (!diagnostic.code.empty())
                std::cerr << " <" << diagnostic.code << ">";
            std::cerr << ": " << diagnostic.message << "\n";
        }
        return 1;
    }
    const auto& compiled = *result.compiled;

    if (options.quiet) {
        std::cout << result.toJson() << "\n";
    } else {
        std::cout << "program " << prog.name << " on "
                  << options.machine << ":\n";
        for (const auto& section : result.sections) {
            std::cout << "  " << section.kind << " '" << section.name
                      << "': " << section.ops << " ops, "
                      << section.cycles << " cycles";
            if (section.kind == "loop")
                std::cout << ", II=" << section.ii
                          << ", stages=" << section.stageCount
                          << (compiled.loop.isWhile ? " (WHILE)" : "");
            std::cout << "\n";
        }
        std::cout << "  compression: prologue overlap "
                  << compiled.prologueOverlap << " cycles, epilogue "
                  << "overlap " << compiled.epilogueOverlap
                  << " cycles\n"
                  << "  cycles at trip 17: " << compiled.compiledCycles(17)
                  << " compressed vs " << compiled.naiveCycles(17)
                  << " naive\n";
    }
    if (options.telemetry)
        std::cout << result.toJson() << "\n";
    if (options.listing)
        std::cout << program::emitProgram(compiled);
    if (options.verify || options.simulateTrip > 0) {
        std::vector<int> trips = {0, 1, 2, 5, 17};
        if (options.simulateTrip > 0)
            trips.push_back(options.simulateTrip);
        const auto diagnostics = program::programEquivalenceDiagnostics(
            prog, machine, program_options, trips, 1);
        for (const auto& diagnostic : diagnostics)
            std::cerr << prog.name << ": <" << diagnostic.code << "> "
                      << diagnostic.message << "\n";
        if (!diagnostics.empty())
            return 1;
        std::cout << "equivalence: compiled == sequential at trips {";
        for (std::size_t i = 0; i < trips.size(); ++i)
            std::cout << (i ? "," : "") << trips[i];
        std::cout << "}\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const CliOptions options = parseArgs(argc, argv);

    if (options.listKernels) {
        for (const auto& w : workloads::kernelLibrary()) {
            std::cout << w.loop.name() << "  (" << w.loop.size()
                      << " ops): " << w.description << "\n";
        }
        for (const auto& entry : workloads::programLibrary()) {
            std::cout << entry.program.name << "  (program, "
                      << entry.program.loop.body.size()
                      << "-op loop): " << entry.description << "\n";
        }
        return 0;
    }
    if (options.files.empty() && options.kernels.empty() &&
        options.programs.empty())
        usage(2);

    const auto stock = machine::stockMachine(options.machine);
    if (!stock) {
        std::cerr << "unknown machine '" << options.machine << "'\n";
        usage(2);
    }
    const machine::MachineModel& machine = *stock;
    const core::PipelinerOptions pipeline_options = pipelineOptions(options);
    int status = 0;
    try {
        for (const auto& name : options.kernels) {
            status |= processLoop(workloads::kernelByName(name).loop,
                                  options, pipeline_options, machine);
        }
        for (const auto& name : options.programs) {
            if (name == "all") {
                for (const auto& entry : workloads::programLibrary())
                    status |= processProgram(entry.program, options,
                                             pipeline_options, machine);
            } else {
                status |= processProgram(workloads::programByName(name),
                                         options, pipeline_options, machine);
            }
        }
        for (const auto& file : options.files) {
            status |= processLoop(ir::parseLoop(readFile(file)), options,
                                  pipeline_options, machine);
        }
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return status;
}
