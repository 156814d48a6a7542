/**
 * @file
 * The Figure-2 II walk on hard-II workloads.
 *
 * "Hard II" means the lowest feasible II sits well above the MII, so the
 * walk burns a full budget per failed candidate before reaching the
 * winner. The workloads are self-calibrated: a fixed-seed stream of
 * fuzz-profile loops is scheduled on the scalar-toy machine (its
 * contention pushes feasible IIs above the MII) and the first loops
 * needing >= 5 attempts are kept and unrolled into multi-hundred-op
 * bodies. Their (II, attempts, schedule hash) triples are the third
 * identity oracle: scripts/check_perf.sh compares them with the
 * checked-in BENCH_ii_search.json. The walk's wall time is recorded
 * alongside, over the repeats.
 *
 * Usage:
 *   bench_ii_search [--out PATH] [--repeats N] [--quick]
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "machine/machines.hpp"
#include "support/error.hpp"
#include "sched/schedule.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "transform/unroll.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace ims;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** FNV-1a over the schedule's (II, times, alternatives). */
std::uint64_t
scheduleHash(const sched::ScheduleResult& schedule)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t value) {
        h ^= value;
        h *= 1099511628211ULL;
    };
    mix(static_cast<std::uint64_t>(schedule.ii));
    for (std::size_t v = 0; v < schedule.times.size(); ++v) {
        mix(static_cast<std::uint64_t>(schedule.times[v]));
        mix(static_cast<std::uint64_t>(schedule.alternatives[v]));
    }
    return h;
}

/**
 * Fixed-seed calibration: walk the fuzz-profile loop stream on the
 * scalar-toy machine and keep the first `want` loops whose II walk
 * needs at least `min_attempts` candidate IIs, then unroll them so every
 * failed attempt is expensive.
 */
std::vector<ir::Loop>
calibrateWorkloads(const machine::MachineModel& machine, int want,
                   int min_attempts, int unroll)
{
    support::Rng rng(1);
    const auto profile = workloads::fuzzProfile();
    std::vector<ir::Loop> hard;
    constexpr int kMaxCandidates = 600;
    for (int i = 0;
         i < kMaxCandidates && static_cast<int>(hard.size()) < want; ++i) {
        auto loop = workloads::generateLoop(
            rng, "hard_" + std::to_string(i), profile);
        try {
            const auto outcome = sched::schedule(loop, machine);
            if (outcome.attempts < min_attempts)
                continue;
        } catch (const support::Error&) {
            continue;
        }
        hard.push_back(transform::unrollLoop(loop, unroll));
    }
    return hard;
}

struct WorkloadResult
{
    std::string name;
    int ops = 0;
    int mii = 0;
    int ii = 0;
    int attempts = 0;
    std::uint64_t hash = 0;
    /** Wall time of the II walk, summed over the repeats. */
    double linearSeconds = 0.0;
};

} // namespace

int
main(int argc, char** argv)
{
    std::string out_path = "BENCH_ii_search.json";
    int repeats = 30;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
        else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc)
            repeats = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else {
            std::cerr << "usage: bench_ii_search [--out PATH] "
                         "[--repeats N] [--quick]\n";
            return 2;
        }
    }
    if (quick)
        repeats = std::max(1, repeats / 10);

    const unsigned cores = std::thread::hardware_concurrency();
    const auto machine = machine::scalarToy();

    std::cout << "calibrating hard-II workloads (feasible II >= MII+4) "
                 "...\n";
    const auto workloads = calibrateWorkloads(
        machine, /*want=*/quick ? 3 : 5, /*min_attempts=*/5,
        /*unroll=*/quick ? 4 : 8);
    if (workloads.empty()) {
        std::cerr << "bench_ii_search: calibration found no hard-II "
                     "workloads\n";
        return 1;
    }

    std::vector<WorkloadResult> results;
    for (const auto& loop : workloads) {
        WorkloadResult result;
        result.name = loop.name();
        result.ops = loop.size();

        // The walk, timed over the repeats.
        const auto start = Clock::now();
        for (int r = 0; r < repeats; ++r) {
            const auto outcome = sched::schedule(loop, machine);
            result.mii = outcome.mii;
            result.ii = outcome.schedule.ii;
            result.attempts = outcome.attempts;
            result.hash = scheduleHash(outcome.schedule);
        }
        result.linearSeconds = secondsSince(start);
        results.push_back(std::move(result));
    }

    support::TextTable table(
        "II search: hard-II workloads (" + machine.name() + ", " +
        std::to_string(repeats) + " repeats, " + std::to_string(cores) +
        " cores)");
    table.addHeader(
        {"workload", "ops", "MII", "II", "attempts", "linear ms"});
    for (const auto& r : results) {
        table.addRow({r.name, std::to_string(r.ops), std::to_string(r.mii),
                      std::to_string(r.ii), std::to_string(r.attempts),
                      support::formatDouble(1e3 * r.linearSeconds, 2)});
    }
    table.print(std::cout);

    {
        std::ofstream out(out_path);
        out << "{\n  \"schema\": \"ims.bench_ii_search.v4\",\n"
            << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
            << "  \"cores\": " << cores << ",\n"
            << "  \"repeats\": " << repeats << ",\n"
            << "  \"workloads\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto& r = results[i];
            out << "    {\"name\": \"" << r.name << "\", \"ops\": "
                << r.ops << ", \"mii\": " << r.mii << ", \"ii\": " << r.ii
                << ", \"attempts\": " << r.attempts << ", \"hash\": \""
                << r.hash << "\", \"linear_wall_seconds\": "
                << r.linearSeconds << "}"
                << (i + 1 < results.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
