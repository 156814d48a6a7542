/**
 * @file
 * ims-fuzz: differential fuzzing driver. Generates random (loop, machine)
 * pairs, runs the full oracle stack on each (structural verification,
 * sequential-vs-pipelined simulation at several trip counts, MII sanity,
 * crash capture), delta-debugs every finding to a minimal reproducer and
 * writes a deterministic JSON campaign report.
 *
 * Usage:
 *   ims-fuzz [--seed S] [--cases N] [--threads T] [options]
 *   ims-fuzz --replay <file.repro>
 *
 * Options:
 *   --seed <S>             master seed (default 1); the whole campaign is
 *                          a pure function of (seed, cases, machine)
 *   --cases <N>            number of cases (default 500)
 *   --threads <T>          worker threads (default: hardware concurrency)
 *   --machine <file|name>  fixed machine for every case: a machine
 *                          description file or a built-in name (cydra5,
 *                          clean64, wide-vliw, scalar-toy); default is a
 *                          fresh random machine per case
 *   --out <file|->         write the JSON report there (default -: stdout)
 *   --repro-dir <dir>      reproducer directory (default tests/repro;
 *                          "none" disables writing)
 *   --no-minimize          keep findings at their generated size
 *   --trips <a,b,c>        sim-oracle trip counts (default 0,1,2,5,17)
 *   --scheduler <iterative|slack|exact>  scheduling backend the pipeline
 *                          under test uses (default iterative)
 *   --oracle <name>        enable an optional oracle class:
 *                          "opt.ii_gap": re-pipeline each clean case with
 *                          the exact backend and report heuristic IIs
 *                          above the proven optimum (budget-exhausted
 *                          exact searches are skipped, not findings);
 *                          "program.equiv": wrap each case as a full
 *                          program and require the whole-program driver
 *                          (EC/LC control, compression, marshaling) to
 *                          match the sequential reference at every trip
 *   --exact-budget <n>     exact-backend node budget per candidate II
 *   --inject-delay-fault   enable the deliberate dependence-delay bug
 *                          (memory flow delays forced to 0) to prove the
 *                          oracle + minimizer path end to end
 *   --replay <file>        re-run the oracles on a reproducer; exit 0 if
 *                          the case is now clean, 2 if it still fails
 *
 * Exit status: 0 = no findings, 1 = findings (campaign mode), 2 = usage
 * error (an unknown option or name, or a malformed number).
 */
#include <iostream>
#include <string>
#include <vector>

#include "core/pipeliner.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/reproducer.hpp"
#include "graph/delay_model.hpp"
#include "ir/parser.hpp"
#include "machine/machine_io.hpp"
#include "machine/machines.hpp"
#include "support/parse_number.hpp"

namespace {

using namespace ims;

struct CliOptions
{
    std::uint64_t seed = 1;
    int cases = 500;
    int threads = 0;
    std::string machine;
    std::string out = "-";
    std::string reproDir = "tests/repro";
    bool minimize = true;
    std::vector<int> trips = {0, 1, 2, 5, 17};
    std::string scheduler = "iterative";
    std::vector<std::string> oracles;
    std::int64_t exactBudget = sched::kDefaultExactNodeBudget;
    bool injectDelayFault = false;
    std::string replayFile;
};

[[noreturn]] void
usage(int code)
{
    std::cerr
        << "usage: ims-fuzz [--seed S] [--cases N] [--threads T]\n"
           "                [--machine <file|cydra5|clean64|wide-vliw|"
           "scalar-toy>]\n"
           "                [--out <file|->] [--repro-dir <dir|none>]\n"
           "                [--no-minimize] [--trips a,b,c] "
           "[--inject-delay-fault]\n"
           "                [--scheduler iterative|slack|exact] "
           "[--oracle opt.ii_gap|program.equiv]\n"
           "                [--exact-budget N]\n"
           "       ims-fuzz --replay <file.repro>\n";
    std::exit(code);
}

std::vector<int>
parseTrips(const std::string& text)
{
    std::vector<int> trips;
    std::string current;
    for (const char c : text + ",") {
        if (c == ',') {
            if (!current.empty()) {
                trips.push_back(support::numberArg<int>("--trips", current));
                current.clear();
            }
        } else {
            current += c;
        }
    }
    if (trips.empty()) {
        std::cerr << "--trips needs at least one trip count\n";
        usage(2);
    }
    return trips;
}

std::string
machineText(const std::string& name)
{
    if (const auto machine = machine::stockMachine(name))
        return machine::printMachine(*machine);
    return fuzz::readTextFile(name);
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
        if (arg == "--seed")
            options.seed =
                support::numberArg<std::uint64_t>(arg, next("a seed"));
        else if (arg == "--cases")
            options.cases = support::numberArg<int>(arg, next("a count"));
        else if (arg == "--threads")
            options.threads = support::numberArg<int>(arg, next("a count"));
        else if (arg == "--machine")
            options.machine = next("a machine file or name");
        else if (arg == "--out")
            options.out = next("a path");
        else if (arg == "--repro-dir")
            options.reproDir = next("a directory");
        else if (arg == "--no-minimize")
            options.minimize = false;
        else if (arg == "--trips")
            options.trips = parseTrips(next("a trip list"));
        else if (arg == "--scheduler")
            options.scheduler = next("a backend name");
        else if (arg == "--oracle")
            options.oracles.push_back(next("an oracle name"));
        else if (arg == "--exact-budget")
            options.exactBudget = support::numberArg<std::int64_t>(
                arg, next("a node budget"));
        else if (arg == "--inject-delay-fault")
            options.injectDelayFault = true;
        else if (arg == "--replay")
            options.replayFile = next("a reproducer file");
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else {
            std::cerr << "unknown option '" << arg << "'\n";
            usage(2);
        }
    }
    return options;
}

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
    return core::PipelinerOptions{}
        .withScheduler(*strategy)
        .withExactNodeBudget(options.exactBudget);
}

fuzz::OracleOptions
oracleOptions(const CliOptions& options)
{
    fuzz::OracleOptions oracle;
    oracle.trips = options.trips;
    oracle.exactNodeBudget = options.exactBudget;
    for (const auto& name : options.oracles) {
        if (name == "opt.ii_gap") {
            oracle.checkOptimality = true;
        } else if (name == "program.equiv") {
            oracle.checkProgramEquivalence = true;
        } else {
            std::cerr << "unknown oracle class '" << name << "'\n";
            usage(2);
        }
    }
    return oracle;
}

int
replay(const CliOptions& options)
{
    const fuzz::ReproducerCase repro =
        fuzz::parseReproducer(fuzz::readTextFile(options.replayFile));
    const machine::MachineModel machine =
        machine::parseMachine(repro.machineText);
    const ir::Loop loop = ir::parseLoop(repro.loopText);

    fuzz::OracleOptions oracle = oracleOptions(options);
    oracle.simSeed = repro.simSeed;
    const fuzz::OracleVerdict verdict =
        fuzz::runOracles(loop, machine, pipelineOptions(options), oracle);

    std::cout << options.replayFile << ": recorded code '" << repro.code
              << "'\n";
    if (!verdict.failed()) {
        std::cout << "replay: clean (the recorded failure no longer "
                     "reproduces)\n";
        return 0;
    }
    std::cout << "replay: still failing with '" << verdict.code
              << "': " << verdict.message << "\n";
    if (verdict.code != repro.code) {
        std::cout << "replay: note: code differs from the recorded one\n";
    }
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    const CliOptions options = parseArgs(argc, argv);
    try {
        if (options.injectDelayFault)
            graph::setDelayFaultForTesting(true);
        if (!options.replayFile.empty())
            return replay(options);

        fuzz::CampaignOptions campaign;
        campaign.seed = options.seed;
        campaign.cases = options.cases;
        campaign.threads = options.threads;
        campaign.minimize = options.minimize;
        campaign.reproDir =
            options.reproDir == "none" ? "" : options.reproDir;
        campaign.oracle = oracleOptions(options);
        campaign.pipeline = pipelineOptions(options);
        if (!options.machine.empty())
            campaign.machineText = machineText(options.machine);

        const fuzz::CampaignReport report = fuzz::runCampaign(campaign);

        const std::string json = report.toJson();
        if (options.out == "-") {
            std::cout << json << "\n";
        } else {
            fuzz::writeTextFile(options.out, json + "\n");
        }
        std::cerr << "ims-fuzz: " << report.cases << " cases, "
                  << report.findings.size() << " findings, "
                  << report.clean << " clean, " << report.wallSeconds
                  << " s on " << report.threadsUsed << " threads\n";
        for (const auto& finding : report.findings) {
            std::cerr << "  case " << finding.caseIndex << " ["
                      << finding.code << "] " << finding.ops << " -> "
                      << finding.minimizedOps << " ops";
            if (!finding.reproFile.empty())
                std::cerr << "  (" << finding.reproFile << ")";
            std::cerr << "\n";
        }
        return report.findings.empty() ? 0 : 1;
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 3;
    }
}
