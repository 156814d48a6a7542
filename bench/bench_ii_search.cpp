/**
 * @file
 * Linear vs feedback II search on hard-II workloads.
 *
 * "Hard II" means the lowest feasible II sits well above the MII, so the
 * linear search burns a full budget per failed candidate before reaching
 * the winner. The workloads are self-calibrated: a fixed-seed stream of
 * fuzz-profile loops is scheduled on the scalar-toy machine (its
 * contention pushes feasible IIs above the MII) and the first loops
 * needing >= 5 linear attempts are kept and unrolled into
 * multi-hundred-op bodies. Their (II, attempts, schedule hash) triples
 * are the third identity oracle: scripts/check_perf.sh compares them
 * with the checked-in BENCH_ii_search.json.
 *
 * The feedback strategy is measured on a second, *provable-gap* family:
 * a crafted machine whose kMul reservation table uses the `sparse`
 * resource at times 0 and C, so the operation modulo-self-collides — and
 * the loop is provably infeasible — at every candidate II dividing C. A
 * 4-add recurrence pins the MII below those gaps, forcing the linear
 * walk to attempt (and fail) each divisor candidate the feedback probe
 * can skip with an exact infeasibility proof.
 *
 * Two gates, both deterministic and always enforced:
 *
 *  1. **Identity**: feedback runs must match linear's (II, schedule
 *     hash, attempts) on every workload of both families — a skip is
 *     only sound on a candidate linear also failed.
 *  2. **Feedback savings**: on every provable-gap workload the feedback
 *     search must skip at least one candidate and run strictly fewer
 *     attempts than linear at the equal final II; billed scheduling
 *     steps must drop accordingly.
 *
 * Usage:
 *   bench_ii_search [--out PATH] [--repeats N] [--quick]
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "ir/loop_builder.hpp"
#include "machine/machine_builder.hpp"
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
 * scalar-toy machine and keep the first `want` loops whose linear search
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

// ---------------------------------------------------------------------------
// Provable-gap family for the feedback strategy.

/**
 * The gap machine: kAdd has two (src_bus, alu) alternatives; kMul has a
 * single alternative using `sparse` at times 0 and C, which self-collides
 * at every II dividing C (the provable gaps). Everything else is a plain
 * single-cycle `mem` table so the rest of the loop never interferes.
 */
machine::MachineModel
gapMachine(int c)
{
    machine::MachineBuilder b("gapster_c" + std::to_string(c));
    b.addResource("src_bus");
    b.addResource("alu0");
    b.addResource("alu1");
    b.addResource("sparse");
    b.addResource("mem");
    {
        machine::ReservationTable t0, t1;
        t0.addUse(0, 0);
        t0.addUse(1, 1);
        t1.addUse(0, 0);
        t1.addUse(1, 2);
        auto cfg = b.opcode(ir::Opcode::kAdd, 4);
        cfg.alternative("a0", t0);
        cfg.alternative("a1", t1);
    }
    {
        machine::ReservationTable t;
        t.addUse(0, 3);
        t.addUse(c, 3);
        auto cfg = b.opcode(ir::Opcode::kMul, 3);
        cfg.alternative("m", t);
    }
    for (int i = 0; i < ir::kNumRealOpcodes; ++i) {
        const auto op = static_cast<ir::Opcode>(i);
        if (op == ir::Opcode::kAdd || op == ir::Opcode::kMul)
            continue;
        machine::ReservationTable t;
        t.addUse(0, 4);
        auto cfg = b.opcode(op, op == ir::Opcode::kLoad ? 2 : 1);
        cfg.alternative("s", t);
    }
    return b.build();
}

/** 4-add recurrence of distance 2 (RecMII 8), the gap kMul, two loads. */
ir::Loop
gapLoop(int c)
{
    ir::LoopBuilder b("gap_c" + std::to_string(c));
    b.recurrence("r");
    b.op(ir::Opcode::kAdd, "t0", {b.reg("r", 2), b.imm(1)});
    b.op(ir::Opcode::kAdd, "t1", {b.reg("t0"), b.imm(1)});
    b.op(ir::Opcode::kAdd, "t2", {b.reg("t1"), b.imm(1)});
    b.op(ir::Opcode::kAdd, "r", {b.reg("t2"), b.imm(1)});
    b.liveIn("x");
    b.op(ir::Opcode::kMul, "p", {b.reg("x"), b.imm(3)});
    b.load("f0", "A", 0, b.reg("x"));
    b.load("f1", "A", 1, b.reg("x"));
    b.closeLoop();
    return b.build();
}

struct GapResult
{
    std::string name;
    std::string backend; // "iterative" or "slack"
    int mii = 0;
    int ii = 0;
    int attempts = 0;
    /** Attempts actually run: candidates visited minus probe skips. */
    int linearAttemptsStarted = 0;
    int feedbackAttemptsStarted = 0;
    int skippedIis = 0;
    long long linearSteps = 0;
    long long feedbackSteps = 0;
    bool identical = false;
};

struct WorkloadResult
{
    std::string name;
    int ops = 0;
    int mii = 0;
    int ii = 0;
    int attempts = 0;
    long long totalSteps = 0;
    std::uint64_t hash = 0;
    /** Wall time of the linear search, summed over the repeats. */
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

    int identity_violations = 0;
    std::vector<WorkloadResult> results;
    for (const auto& loop : workloads) {
        WorkloadResult result;
        result.name = loop.name();
        result.ops = loop.size();

        // Linear reference, timed over the repeats.
        const auto start = Clock::now();
        for (int r = 0; r < repeats; ++r) {
            const auto outcome = sched::schedule(loop, machine);
            result.mii = outcome.mii;
            result.ii = outcome.schedule.ii;
            result.attempts = outcome.attempts;
            result.totalSteps = outcome.totalSteps;
            result.hash = scheduleHash(outcome.schedule);
        }
        result.linearSeconds = secondsSince(start);

        // Feedback identity on the hard-II family: the winner and the
        // winning schedule must equal linear's (skips, when the probe
        // proves any, only remove failed attempts from the bill).
        {
            sched::ScheduleOptions options;
            options.search.withKind(sched::IiSearchKind::kFeedback);
            const auto outcome = sched::schedule(loop, machine, options);
            if (outcome.schedule.ii != result.ii ||
                scheduleHash(outcome.schedule) != result.hash ||
                outcome.attempts != result.attempts ||
                outcome.totalSteps > result.totalSteps) {
                std::cerr << "identity violation: " << result.name
                          << " with feedback: II " << outcome.schedule.ii
                          << " vs " << result.ii << ", attempts "
                          << outcome.attempts << " vs " << result.attempts
                          << "\n";
                ++identity_violations;
            }
        }
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

    // ----------------------------------------------------------------
    // Provable-gap family: linear vs feedback, both heuristic backends.
    // Everything here is deterministic, so the gate always enforces.
    const std::vector<int> gap_cs = {90, 360, 1980, 2520};
    std::vector<GapResult> gaps;
    bool feedback_gate_passed = true;
    for (const int c : gap_cs) {
        const auto machine_c = gapMachine(c);
        const auto loop = gapLoop(c);
        for (const auto backend : {sched::SchedulerStrategy::kIterative,
                                   sched::SchedulerStrategy::kSlack}) {
            sched::ScheduleOptions linear;
            linear.strategy = backend;
            const auto base = sched::schedule(loop, machine_c, linear);

            sched::ScheduleOptions fb = linear;
            fb.search.withKind(sched::IiSearchKind::kFeedback);
            const auto got = sched::schedule(loop, machine_c, fb);

            GapResult g;
            g.name = loop.name();
            g.backend = base.scheduler;
            g.mii = base.mii;
            g.ii = base.schedule.ii;
            g.attempts = base.attempts;
            g.linearAttemptsStarted = base.attempts - base.search.skippedIis;
            g.feedbackAttemptsStarted = got.attempts - got.search.skippedIis;
            g.skippedIis = got.search.skippedIis;
            g.linearSteps = base.totalSteps;
            g.feedbackSteps = got.totalSteps;
            g.identical =
                got.schedule.ii == base.schedule.ii &&
                scheduleHash(got.schedule) == scheduleHash(base.schedule) &&
                got.attempts == base.attempts;

            // The feedback gate: equal final II and schedule, at least
            // one proven skip, strictly fewer attempts run, and a
            // strictly smaller step bill.
            if (!g.identical || g.skippedIis < 1 ||
                g.feedbackAttemptsStarted >= g.linearAttemptsStarted ||
                g.feedbackSteps >= g.linearSteps) {
                std::cerr << "feedback gate violation: " << g.name << "/"
                          << g.backend << ": identical="
                          << (g.identical ? "yes" : "NO")
                          << " skipped=" << g.skippedIis << " attempts "
                          << g.feedbackAttemptsStarted << " vs "
                          << g.linearAttemptsStarted << ", steps "
                          << g.feedbackSteps << " vs " << g.linearSteps
                          << "\n";
                feedback_gate_passed = false;
            }
            gaps.push_back(std::move(g));
        }
    }

    support::TextTable gap_table(
        "feedback search: provable-gap family (linear vs feedback, "
        "attempts run and billed steps)");
    gap_table.addHeader({"workload", "backend", "MII", "II", "skipped",
                         "attempts lin", "attempts fb", "steps lin",
                         "steps fb"});
    double attempt_log_sum = 0.0;
    double step_log_sum = 0.0;
    for (const auto& g : gaps) {
        gap_table.addRow({g.name, g.backend, std::to_string(g.mii),
                          std::to_string(g.ii),
                          std::to_string(g.skippedIis),
                          std::to_string(g.linearAttemptsStarted),
                          std::to_string(g.feedbackAttemptsStarted),
                          std::to_string(g.linearSteps),
                          std::to_string(g.feedbackSteps)});
        attempt_log_sum += std::log(
            static_cast<double>(g.linearAttemptsStarted) /
            std::max(1, g.feedbackAttemptsStarted));
        step_log_sum +=
            std::log(static_cast<double>(g.linearSteps) /
                     std::max(1LL, g.feedbackSteps));
    }
    gap_table.print(std::cout);
    const double attempt_savings =
        gaps.empty() ? 1.0 : std::exp(attempt_log_sum / gaps.size());
    const double step_savings =
        gaps.empty() ? 1.0 : std::exp(step_log_sum / gaps.size());
    std::cout << "feedback geomean savings: "
              << support::formatDouble(attempt_savings, 2)
              << "x fewer attempts run, "
              << support::formatDouble(step_savings, 2)
              << "x fewer billed steps\n"
              << "feedback gate (>=1 skip, strictly fewer attempts and "
                 "steps, identical schedule): "
              << (feedback_gate_passed ? "passed" : "FAILED") << "\n";

    {
        std::ofstream out(out_path);
        out << "{\n  \"schema\": \"ims.bench_ii_search.v3\",\n"
            << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
            << "  \"cores\": " << cores << ",\n"
            << "  \"repeats\": " << repeats << ",\n"
            << "  \"identity_violations\": " << identity_violations
            << ",\n  \"workloads\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto& r = results[i];
            out << "    {\"name\": \"" << r.name << "\", \"ops\": "
                << r.ops << ", \"mii\": " << r.mii << ", \"ii\": " << r.ii
                << ", \"attempts\": " << r.attempts << ", \"hash\": \""
                << r.hash << "\", \"linear_wall_seconds\": "
                << r.linearSeconds << "}"
                << (i + 1 < results.size() ? "," : "") << "\n";
        }
        out << "  ],\n";
        out << "  \"feedback_gate_passed\": "
            << (feedback_gate_passed ? "true" : "false") << ",\n"
            << "  \"feedback_attempt_savings\": " << attempt_savings
            << ",\n"
            << "  \"feedback_step_savings\": " << step_savings << ",\n"
            << "  \"gap_family\": [\n";
        for (std::size_t i = 0; i < gaps.size(); ++i) {
            const auto& g = gaps[i];
            out << "    {\"name\": \"" << g.name << "\", \"backend\": \""
                << g.backend << "\", \"mii\": " << g.mii << ", \"ii\": "
                << g.ii << ", \"attempts\": " << g.attempts
                << ", \"skipped\": " << g.skippedIis
                << ", \"linear_started\": " << g.linearAttemptsStarted
                << ", \"feedback_started\": " << g.feedbackAttemptsStarted
                << ", \"linear_steps\": " << g.linearSteps
                << ", \"feedback_steps\": " << g.feedbackSteps
                << ", \"identical\": " << (g.identical ? "true" : "false")
                << "}" << (i + 1 < gaps.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }
    std::cout << "wrote " << out_path << "\n";

    if (identity_violations != 0) {
        std::cerr << "bench_ii_search: " << identity_violations
                  << " identity violations (feedback != linear)\n";
        return 1;
    }
    if (!feedback_gate_passed) {
        std::cerr << "bench_ii_search: feedback gate failed on the "
                     "provable-gap family\n";
        return 1;
    }
    return 0;
}
