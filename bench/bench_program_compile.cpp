/**
 * @file
 * Whole-program compilation bench: drive the ProgramCompiler over the
 * named program corpus, measure end-to-end compile throughput, and gate
 * the pipeline-compression contract — overlapping the prologue and
 * epilogue with the adjacent blocks must never cost cycles at any trip
 * count, and must strictly win on at least one corpus program. Each
 * compiled program is also checked against the sequential reference
 * once, so the numbers in the report are from executions known correct.
 *
 * Usage: bench_program_compile [--repeat N] [--trip N] [--out <file|->]
 *        (defaults: 5 repetitions, trip 17, stdout)
 *
 * Exit status: 0 = all gates passed, 1 = a gate failed.
 */
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "machine/cydra5.hpp"
#include "program/program_compiler.hpp"
#include "program/program_executor.hpp"
#include "support/table.hpp"
#include "workloads/programs.hpp"

namespace {

using namespace ims;

struct ProgramRow
{
    std::string name;
    int ii = 0;
    int stages = 0;
    int prologueOverlap = 0;
    int epilogueOverlap = 0;
    long long naiveCycles = 0;
    long long compressedCycles = 0;
    bool equivalent = false;
};

} // namespace

int
main(int argc, char** argv)
{
    int repeat = 5;
    int trip = 17;
    std::string out = "-";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc)
            repeat = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--trip") == 0 && i + 1 < argc)
            trip = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out = argv[++i];
        else {
            std::cerr << "usage: bench_program_compile [--repeat N] "
                         "[--trip N] [--out <file|->]\n";
            return 2;
        }
    }
    if (repeat <= 0 || trip <= 0) {
        std::cerr << "bench_program_compile: --repeat and --trip need "
                     "positive values\n";
        return 2;
    }

    const auto machine = machine::cydra5();
    const auto corpus = workloads::programLibrary();
    const program::ProgramCompiler compiler(machine);

    // Throughput: every corpus program compiled end to end (block list
    // scheduling, modulo scheduling with II search, EC/LC lowering,
    // compression analysis), repeated to stabilize the clock.
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeat; ++r) {
        for (const auto& entry : corpus) {
            const auto result = compiler.compile(entry.program);
            if (!result.ok()) {
                std::cerr << entry.program.name
                          << ": compile failed: " << result.firstError()
                          << "\n";
                return 1;
            }
        }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const double programs_per_s =
        seconds > 0.0 ? repeat * corpus.size() / seconds : 0.0;

    std::vector<ProgramRow> rows;
    bool no_regression = true;
    int wins = 0;
    int equivalence_failures = 0;
    for (const auto& entry : corpus) {
        const auto result = compiler.compile(entry.program);
        const auto& compiled = *result.compiled;
        ProgramRow row;
        row.name = entry.program.name;
        row.ii = compiled.loop.code.kernel.ii;
        row.stages = compiled.loop.code.kernel.stageCount;
        row.prologueOverlap = compiled.prologueOverlap;
        row.epilogueOverlap = compiled.epilogueOverlap;
        row.naiveCycles = compiled.naiveCycles(trip);
        row.compressedCycles = compiled.compiledCycles(trip);

        // The compression contract, at the reporting trip and at the
        // degenerate counts where the runtime clamp engages.
        for (const int t : {0, 1, 2, trip}) {
            if (compiled.compiledCycles(t) > compiled.naiveCycles(t))
                no_regression = false;
        }
        if (row.compressedCycles < row.naiveCycles)
            ++wins;

        const auto spec =
            program::makeProgramSpec(entry.program, trip, 2026);
        const auto expect =
            program::runProgramSequential(entry.program, spec);
        const auto actual = program::runProgramCompiled(compiled, spec);
        row.equivalent =
            program::describeStateDifference(expect, actual).empty();
        if (!row.equivalent)
            ++equivalence_failures;
        rows.push_back(row);
    }

    support::TextTable table("program compilation (trip " +
                             std::to_string(trip) + ")");
    table.addHeader({"program", "II", "stages", "overlap pro/epi",
                     "naive cyc", "compressed cyc", "equiv"});
    for (const auto& row : rows) {
        table.addRow({row.name, std::to_string(row.ii),
                      std::to_string(row.stages),
                      std::to_string(row.prologueOverlap) + "/" +
                          std::to_string(row.epilogueOverlap),
                      std::to_string(row.naiveCycles),
                      std::to_string(row.compressedCycles),
                      row.equivalent ? "yes" : "NO"});
    }
    table.print(std::cout);
    std::cout << "\ncompile throughput: " << programs_per_s
              << " programs/s (" << corpus.size() << " programs x "
              << repeat << " repetitions in " << seconds << " s)\n";

    const bool strict_win = wins > 0;
    std::ostringstream json;
    json << "{\"tool\":\"bench_program_compile\",\"programs\":"
         << corpus.size() << ",\"repeat\":" << repeat
         << ",\"trip\":" << trip << ",\"seconds\":" << seconds
         << ",\"programs_per_s\":" << programs_per_s
         << ",\"compression_wins\":" << wins
         << ",\"equivalence_failures\":" << equivalence_failures
         << ",\"gates\":{\"no_regression\":"
         << (no_regression ? "true" : "false")
         << ",\"strict_win\":" << (strict_win ? "true" : "false")
         << ",\"equivalence\":"
         << (equivalence_failures == 0 ? "true" : "false")
         << "},\"results\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& row = rows[i];
        json << (i ? "," : "") << "{\"program\":\"" << row.name
             << "\",\"ii\":" << row.ii << ",\"stages\":" << row.stages
             << ",\"prologue_overlap\":" << row.prologueOverlap
             << ",\"epilogue_overlap\":" << row.epilogueOverlap
             << ",\"naive_cycles\":" << row.naiveCycles
             << ",\"compressed_cycles\":" << row.compressedCycles
             << ",\"equivalent\":" << (row.equivalent ? "true" : "false")
             << "}";
    }
    json << "]}";
    if (out == "-") {
        std::cout << json.str() << "\n";
    } else {
        std::ofstream stream(out);
        stream << json.str() << "\n";
        std::cout << "report written to " << out << "\n";
    }

    if (!no_regression) {
        std::cerr << "bench_program_compile: compression increased the "
                     "cycle count on a corpus program\n";
        return 1;
    }
    if (!strict_win) {
        std::cerr << "bench_program_compile: compression won on no "
                     "corpus program\n";
        return 1;
    }
    if (equivalence_failures != 0) {
        std::cerr << "bench_program_compile: compiled execution diverged "
                     "from the sequential reference\n";
        return 1;
    }
    std::cout << "gates: no_regression, strict_win, equivalence — all "
                 "passed\n";
    return 0;
}
