/**
 * @file
 * The three workloads that call SoftwarePipeliner::pipeline() directly:
 *
 *  - corpus_batch: the §4.1 corpus through BatchPipeliner at the host's
 *    thread count, repeated passes;
 *  - unroll_ladder: nine unrolled kernels (75/300/600 ops), one client
 *    calling pipeline() back to back in a seeded order;
 *  - hard_ii: the hard-II tail on scalar-toy, one client back to back.
 *
 * Every run checks its outputs outside the timed region: each timed
 * result must reproduce the reference run's schedule, code shape and
 * work counts, and a seeded sample of loops is re-checked against the
 * sequential interpreter with core::simEquivalenceDiagnostics.
 */
#include <sched.h>

#include <iostream>
#include <memory>
#include <numeric>

#include "common.hpp"
#include "core/batch_pipeliner.hpp"
#include "inputs.hpp"
#include "machine/cydra5.hpp"
#include "machine/machines.hpp"
#include "replica.hpp"
#include "service/schedule_cache.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "trace.hpp"
#include "workloads/profile_model.hpp"

namespace perfbench {

using namespace ims;

namespace {

// Odd, so that the median call falls inside one loop's cluster of
// latencies rather than on the gap between two loops.
constexpr int kHardLoops = 17;
constexpr int kSetups = 5;
constexpr int kSimSample = 12;

/** Everything one set-up produces: inputs, the program, a warm pass. */
struct Prepared
{
    std::vector<ir::Loop> loops;
    std::unique_ptr<core::SoftwarePipeliner> pipeliner;
    /** corpus_batch only. */
    std::unique_ptr<core::BatchPipeliner> batch;
    /** The warm-up pass, one result per loop: the run's reference. */
    std::vector<core::PipelineResult> warm;
};

Prepared
prepare(const Args& args)
{
    Prepared prepared;
    if (args.workload == "corpus_batch")
        prepared.loops = corpusLoops();
    else if (args.workload == "unroll_ladder")
        prepared.loops = unrollLadder();
    else
        prepared.loops = hardIiLoops(kHardLoops);

    machine::MachineModel machine = args.workload == "hard_ii"
                                        ? machine::scalarToy()
                                        : machine::cydra5();
    if (args.workload == "corpus_batch") {
        prepared.batch = std::make_unique<core::BatchPipeliner>(
            machine, core::BatchOptions{}.withThreads(args.threads));
        core::BatchResult warm = prepared.batch->run(prepared.loops);
        for (auto& item : warm.items)
            prepared.warm.push_back(std::move(item.result));
    }
    prepared.pipeliner =
        std::make_unique<core::SoftwarePipeliner>(std::move(machine));
    if (!prepared.batch) {
        for (const auto& loop : prepared.loops)
            prepared.warm.push_back(
                prepared.pipeliner->pipeline(core::PipelineRequest(loop)));
    }
    return prepared;
}

/**
 * The parts of a result that every repeat must reproduce exactly: the
 * schedule, the kernel's stage count, the schedule-length bound, and the
 * deterministic work counts (attempts, steps, MinDist inner steps).
 */
std::uint64_t
outputDigest(const core::PipelineResult& result)
{
    support::Fnv1a digest;
    const auto& telemetry = result.telemetry;
    digest.update(result.ok() ? "ok" : "failed");
    for (const std::int64_t value :
         {std::int64_t{telemetry.ii}, std::int64_t{telemetry.mii},
          std::int64_t{telemetry.attempts}, telemetry.stepsTotal,
          static_cast<std::int64_t>(telemetry.counters.minDistInnerSteps)})
        digest.update(static_cast<std::uint64_t>(value));
    if (result.ok()) {
        const auto& artifacts = *result.artifacts;
        const auto& schedule = artifacts.outcome.schedule;
        for (std::size_t v = 0; v < schedule.times.size(); ++v) {
            digest.update(static_cast<std::uint64_t>(schedule.times[v]));
            digest.update(
                static_cast<std::uint64_t>(schedule.alternatives[v]));
        }
        digest.update(
            static_cast<std::uint64_t>(artifacts.minScheduleLength));
        digest.update(
            static_cast<std::uint64_t>(artifacts.code.kernel.stageCount));
    }
    return digest.digest();
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    }
    return cpus;
}

/** Move the calling thread onto `cpu`. */
void
pinCallingThread(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

/** The timed part of a run, with tracing off. */
struct Measured
{
    std::vector<double> latenciesMs;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Time inside pipeline() / BatchPipeliner::run. */
    double timedSeconds = 0.0;
    /** Summed per-loop pipeline() time (busy time of the workers). */
    double busySeconds = 0.0;
    double elapsedSeconds = 0.0;
    std::uint64_t steals = 0;
    std::uint64_t passes = 0;
    int threads = 1;
    /** Correct results per second of each full pass over the loop set;
     *  the median damps bursts of load from other tenants of the host. */
    std::vector<double> passThroughput;
};

} // namespace

Outcome
runPipelineWorkload(const Args& args)
{
    Outcome outcome;

    std::vector<double> setup_seconds;
    Prepared prepared;
    for (int i = 0; i < kSetups; ++i) {
        const auto start = Clock::now();
        Prepared next = prepare(args);
        setup_seconds.push_back(secondsSince(start));
        prepared = std::move(next);
    }
    const std::size_t n = prepared.loops.size();
    const machine::MachineModel& machine = prepared.pipeliner->machine();

    // Reference outputs and quality from the warm-up pass (untimed).
    std::vector<std::uint64_t> digests(n, 0);
    std::vector<std::uint64_t> fingerprints(n, 0);
    LayerCounts counts;
    std::vector<double> ii_ratios;
    double exec_time = 0.0;
    double exec_bound = 0.0;
    int profile_index = 0;
    int ops_total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const core::PipelineResult& result = prepared.warm[i];
        ops_total += prepared.loops[i].size();
        if (!result.ok()) {
            std::cerr << "reference run failed on " << prepared.loops[i].name()
                      << ": " << result.firstError() << "\n";
            ++outcome.failed;
            continue;
        }
        digests[i] = outputDigest(result);
        fingerprints[i] =
            service::fingerprintResult(prepared.loops[i], machine, result);
        counts.add(result);
        const auto& artifacts = *result.artifacts;
        const int ii = artifacts.outcome.schedule.ii;
        const int mii = artifacts.outcome.mii;
        ii_ratios.push_back(static_cast<double>(ii) / mii);
        // Loop k is weighted by the k-th executed synthetic profile.
        workloads::LoopProfile profile;
        do {
            profile = workloads::syntheticProfile(profile_index++);
        } while (!profile.executed);
        exec_time += workloads::executionTime(
            profile, artifacts.outcome.schedule.scheduleLength, ii);
        exec_bound += workloads::executionTime(
            profile, artifacts.minScheduleLength, mii);
    }

    // Output oracle: a seeded sample against the sequential interpreter.
    support::Rng rng(mixSeed(args.seed, 5));
    const int sim_checks = std::min<int>(kSimSample, static_cast<int>(n));
    for (int k = 0; k < sim_checks; ++k) {
        const auto i = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(n) - 1));
        if (!prepared.warm[i].ok())
            continue;
        const auto diagnostics = core::simEquivalenceDiagnostics(
            prepared.loops[i], *prepared.warm[i].artifacts, {0, 1, 2, 5, 17},
            mixSeed(args.seed, 6 + static_cast<std::uint64_t>(k)));
        if (!diagnostics.empty()) {
            std::cerr << "sim oracle: " << prepared.loops[i].name() << ": "
                      << diagnostics.front().message << "\n";
            ++outcome.failed;
        }
    }

    // The single client's calls: passes over the loop set, each in a fresh
    // seeded order, so that no loop always follows the same neighbour
    // (which loop ran before decides what is left in the caches).
    // A one-client workload also moves to the next allowed CPU at every
    // pass: on a shared host each vCPU's speed drifts on its own, and
    // visiting all of them keeps one slow vCPU from setting a run's result.
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const std::vector<int> cpus =
        prepared.batch ? std::vector<int>{} : allowedCpus();
    std::size_t cursor = n;
    std::size_t passes_started = 0;
    const auto next_loop = [&] {
        if (cursor == n) {
            if (!cpus.empty())
                pinCallingThread(cpus[passes_started++ % cpus.size()]);
            for (std::size_t i = n; i > 1; --i)
                std::swap(order[i - 1],
                          order[static_cast<std::size_t>(
                              rng.uniformInt(0, static_cast<int>(i) - 1))]);
            cursor = 0;
        }
        return order[cursor++];
    };

    const auto correct = [&](std::size_t i, const core::PipelineResult& r) {
        return r.ok() && outputDigest(r) == digests[i];
    };

    const auto measure = [&](double seconds) {
        Measured m;
        const auto start = Clock::now();
        std::size_t pass_calls = 0;
        std::size_t pass_correct = 0;
        double pass_seconds = 0.0;
        while (secondsSince(start) < seconds) {
            if (prepared.batch) {
                const auto t0 = Clock::now();
                const core::BatchResult batch =
                    prepared.batch->run(prepared.loops);
                pass_seconds = secondsSince(t0);
                m.timedSeconds += pass_seconds;
                m.threads = batch.threadsUsed;
                m.steals += batch.workSteals;
                ++m.passes;
                std::vector<double> pass_ms;
                for (std::size_t i = 0; i < n; ++i) {
                    const auto& result = batch.items[i].result;
                    ++m.attempted;
                    m.busySeconds += result.telemetry.wallSeconds;
                    if (correct(i, result))
                        pass_ms.push_back(result.telemetry.wallSeconds * 1e3);
                    else
                        ++m.failed;
                }
                m.passThroughput.push_back(
                    static_cast<double>(pass_ms.size()) / pass_seconds);
                m.latenciesMs.insert(m.latenciesMs.end(), pass_ms.begin(),
                                     pass_ms.end());
                continue;
            }
            const std::size_t i = next_loop();
            const auto t0 = Clock::now();
            const core::PipelineResult result = prepared.pipeliner->pipeline(
                core::PipelineRequest(prepared.loops[i]));
            const double seconds_taken = secondsSince(t0);
            m.timedSeconds += seconds_taken;
            m.busySeconds += seconds_taken;
            ++m.attempted;
            if (correct(i, result)) {
                m.latenciesMs.push_back(seconds_taken * 1e3);
                ++pass_correct;
            } else {
                ++m.failed;
            }
            pass_seconds += seconds_taken;
            if (++pass_calls == n) {
                m.passThroughput.push_back(
                    static_cast<double>(pass_correct) / pass_seconds);
                pass_calls = pass_correct = 0;
                pass_seconds = 0.0;
            }
        }
        m.elapsedSeconds = secondsSince(start);
        return m;
    };

    std::cout << args.workload << ": " << n << " loops, " << ops_total
              << " ops, " << sim_checks << " sim-checked, setup median "
              << quantile(setup_seconds, 0.5) << " s\n";

    if (!args.trace) {
        const Measured m = measure(args.seconds);
        outcome.attempted += m.attempted;
        outcome.failed += m.failed;
        outcome.metrics["setup_s"] = {quantile(setup_seconds, 0.5), "s"};
        outcome.metrics["throughput_per_s"] = {quantile(m.passThroughput, 0.5),
                                               "1/s"};
        addLatencyMetrics(outcome, m.latenciesMs, args.sloMs, m.attempted);
        outcome.metrics["ii_over_mii"] = {geomean(ii_ratios), "ratio"};
        outcome.metrics["exec_time_ratio"] = {
            exec_bound > 0.0 ? exec_time / exec_bound : 0.0, "ratio"};
        outcome.metrics["peak_rss_mb"] = {peakRssMb(), "MiB"};
        return outcome;
    }

    // Traced run: half the time as above for the batch readings, half
    // alternating an untraced pipeline() call with the traced replica.
    const Measured m = measure(args.seconds / 2.0);
    outcome.attempted += m.attempted;
    outcome.failed += m.failed;

    Tracer tracer;
    std::vector<bool> fingerprinted(n, false);
    std::size_t fingerprints_checked = 0;
    double real_seconds = 0.0;
    double bounds_seconds = 0.0;
    std::uint64_t calls = 0;
    const auto start = Clock::now();
    while (fingerprints_checked < n ||
           secondsSince(start) < args.seconds / 2.0) {
        const std::size_t i = next_loop();
        // Alternate which of the two goes first, so neither is always the
        // one that finds the loop's data in cache.
        core::PipelineResult real;
        core::PipelineResult replica;
        const auto run_real = [&] {
            const auto t0 = Clock::now();
            real = prepared.pipeliner->pipeline(
                core::PipelineRequest(prepared.loops[i]));
            real_seconds += secondsSince(t0);
        };
        const auto run_replica = [&] {
            replica = tracedPipeline(*prepared.pipeliner, prepared.loops[i],
                                     tracer, calls + 1, 0);
        };
        if (calls % 2 == 0) {
            run_real();
            run_replica();
        } else {
            run_replica();
            run_real();
        }
        ++calls;
        bounds_seconds +=
            replica.telemetry.phaseSeconds(support::Phase::kMiiBounds);

        outcome.attempted += 2;
        bool ok = correct(i, real) && correct(i, replica);
        if (!fingerprinted[i]) {
            fingerprinted[i] = true;
            ++fingerprints_checked;
            ok = ok && service::fingerprintResult(prepared.loops[i], machine,
                                                  replica) == fingerprints[i];
        }
        if (!ok) {
            std::cerr << "traced replica diverged on "
                      << prepared.loops[i].name() << "\n";
            outcome.failed += 2;
        }
    }

    double layer_seconds = 0.0;
    for (const std::string& name : pipelineLayerSpans())
        layer_seconds += tracer.totalSeconds(name);
    addPipelineSpanMetrics(outcome, tracer, bounds_seconds, calls);
    counts.addMetrics(outcome);
    outcome.metrics["core.unattributed_share"] = {
        1.0 - layer_seconds / real_seconds, "share"};
    outcome.metrics["bench.trace_overhead_share"] = {
        tracer.totalSeconds("core.pipeline") / real_seconds - 1.0, "share"};
    outcome.metrics["core.batch_efficiency"] = {
        prepared.batch ? m.busySeconds / (m.threads * m.timedSeconds)
                       : m.busySeconds / m.elapsedSeconds,
        "share"};
    outcome.metrics["core.work_steals"] = {
        m.passes == 0 ? 0.0
                      : static_cast<double>(m.steals) /
                            static_cast<double>(m.passes),
        "count"};
    std::cout << "traced " << calls << " pipeline() calls, unattributed "
              << outcome.metrics["core.unattributed_share"].value << "\n";
    tracer.writeChromeTrace(args.traceOut);
    return outcome;
}

} // namespace perfbench
