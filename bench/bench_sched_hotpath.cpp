/**
 * @file
 * Scheduler hot-path benchmark and schedule-identity harness.
 *
 * Two jobs in one binary:
 *
 *  1. **Identity**: modulo-schedule every kernel of the Cydra-5 kernel
 *     corpus with the default production options and compare (II, schedule
 *     hash, unschedule count) against a checked-in golden file captured on
 *     the pre-overhaul seed. A schedule may differ from the seed only when
 *     the forced-placement displacement fix *strictly* reduced the
 *     unschedule count for that loop; anything else is a regression.
 *
 *  2. **Throughput**: sweep loop sizes (unrolled kernels up to 400+ ops)
 *     through the raw scheduler and through the BatchPipeliner at several
 *     thread counts, and report scheduler steps/second and loops/second.
 *     The results are written as BENCH_sched_hotpath.json; with
 *     --baseline the run fails if any metric regresses by more than 10%
 *     against the checked-in baseline (scripts/check_perf.sh drives this).
 *
 * Usage:
 *   bench_sched_hotpath [--golden PATH] [--write-golden PATH]
 *                       [--out PATH] [--baseline PATH]
 *                       [--threads a,b,c] [--quick] [--scaling-gate]
 *
 * --scaling-gate additionally fails the run when the BatchPipeliner does
 * not reach 3x loops/second at 8 threads over 1 thread — enforced only
 * when the host reports >= 8 hardware threads (the JSON records
 * `gate_enforced` so CI logs show whether the gate was live).
 */
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_pipeliner.hpp"
#include "graph/graph_builder.hpp"
#include "graph/scc.hpp"
#include "machine/cydra5.hpp"
#include "sched/schedule.hpp"
#include "sched/mrt.hpp"
#include "support/table.hpp"
#include "transform/unroll.hpp"
#include "workloads/kernels.hpp"

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
 * Minimal parser for the flat JSON this bench itself writes: extracts the
 * array named `key` as a list of string->string maps (numbers kept as
 * their literal text). No nesting inside array elements.
 */
std::vector<std::map<std::string, std::string>>
parseObjectArray(const std::string& text, const std::string& key)
{
    std::vector<std::map<std::string, std::string>> result;
    const auto array_pos = text.find("\"" + key + "\"");
    if (array_pos == std::string::npos)
        return result;
    std::size_t pos = text.find('[', array_pos);
    const std::size_t end = text.find(']', pos);
    if (pos == std::string::npos || end == std::string::npos)
        return result;
    while (true) {
        const std::size_t open = text.find('{', pos);
        if (open == std::string::npos || open > end)
            break;
        const std::size_t close = text.find('}', open);
        std::map<std::string, std::string> object;
        std::size_t cursor = open;
        while (true) {
            const std::size_t kq = text.find('"', cursor);
            if (kq == std::string::npos || kq > close)
                break;
            const std::size_t kq2 = text.find('"', kq + 1);
            const std::string name = text.substr(kq + 1, kq2 - kq - 1);
            std::size_t vstart = text.find(':', kq2) + 1;
            while (vstart < close && std::isspace(text[vstart]))
                ++vstart;
            std::string value;
            if (text[vstart] == '"') {
                const std::size_t vend = text.find('"', vstart + 1);
                value = text.substr(vstart + 1, vend - vstart - 1);
                cursor = vend + 1;
            } else {
                std::size_t vend = vstart;
                while (vend < close && text[vend] != ',' &&
                       text[vend] != '}')
                    ++vend;
                value = text.substr(vstart, vend - vstart);
                while (!value.empty() && std::isspace(value.back()))
                    value.pop_back();
                cursor = vend;
            }
            object[name] = value;
        }
        result.push_back(std::move(object));
        pos = close + 1;
    }
    return result;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "bench_sched_hotpath: cannot read " << path << "\n";
        std::exit(1);
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::vector<int>
parseThreadList(const std::string& text)
{
    std::vector<int> threads;
    std::stringstream in(text);
    std::string item;
    while (std::getline(in, item, ',')) {
        const int value = std::atoi(item.c_str());
        if (value <= 0)
            return {};
        threads.push_back(value);
    }
    return threads;
}

/** One identity record: what the seed produced for a kernel. */
struct IdentityRecord
{
    std::string name;
    int ii = 0;
    int scheduleLength = 0;
    long long unschedules = 0;
    std::uint64_t hash = 0;
};

std::vector<IdentityRecord>
measureIdentity()
{
    const auto machine = machine::cydra5();
    std::vector<IdentityRecord> records;
    for (const auto& w : workloads::kernelLibrary()) {
        const auto graph = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(graph);
        const auto outcome =
            sched::schedule(w.loop, machine, graph, sccs);
        IdentityRecord record;
        record.name = w.loop.name();
        record.ii = outcome.schedule.ii;
        record.scheduleLength = outcome.schedule.scheduleLength;
        record.unschedules = outcome.totalUnschedules;
        record.hash = scheduleHash(outcome.schedule);
        records.push_back(std::move(record));
    }
    return records;
}

void
writeGolden(const std::vector<IdentityRecord>& records,
            const std::string& path)
{
    std::ofstream out(path);
    out << "{\n  \"schema\": \"ims.sched_identity.v1\",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto& r = records[i];
        out << "    {\"name\": \"" << r.name << "\", \"ii\": " << r.ii
            << ", \"schedule_length\": " << r.scheduleLength
            << ", \"unschedules\": " << r.unschedules << ", \"hash\": \""
            << r.hash << "\"}" << (i + 1 < records.size() ? "," : "")
            << "\n";
    }
    out << "  ]\n}\n";
}

/** Returns the number of mismatches (0 = identity holds). */
int
checkIdentity(const std::vector<IdentityRecord>& current,
              const std::string& golden_path)
{
    const auto golden_objects =
        parseObjectArray(readFile(golden_path), "kernels");
    std::map<std::string, IdentityRecord> golden;
    for (const auto& object : golden_objects) {
        IdentityRecord r;
        r.name = object.at("name");
        r.ii = std::atoi(object.at("ii").c_str());
        r.scheduleLength = std::atoi(object.at("schedule_length").c_str());
        r.unschedules = std::atoll(object.at("unschedules").c_str());
        r.hash = std::strtoull(object.at("hash").c_str(), nullptr, 10);
        golden[r.name] = r;
    }

    int mismatches = 0;
    int improved = 0;
    for (const auto& r : current) {
        const auto it = golden.find(r.name);
        if (it == golden.end()) {
            std::cerr << "identity: kernel '" << r.name
                      << "' missing from golden file\n";
            ++mismatches;
            continue;
        }
        const auto& g = it->second;
        const bool identical =
            r.hash == g.hash && r.ii == g.ii &&
            r.unschedules <= g.unschedules;
        const bool strictly_better =
            r.ii <= g.ii && r.unschedules < g.unschedules;
        if (identical)
            continue;
        if (strictly_better) {
            ++improved;
            continue;
        }
        std::cerr << "identity: '" << r.name << "' diverged: II " << r.ii
                  << " (seed " << g.ii << "), unschedules "
                  << r.unschedules << " (seed " << g.unschedules
                  << "), hash " << r.hash << " (seed " << g.hash << ")\n";
        ++mismatches;
    }
    std::cout << "identity: " << current.size() << " kernels, "
              << improved
              << " improved by the displacement fix, " << mismatches
              << " regressions\n";
    return mismatches;
}

/** One scheduler-only throughput sample. */
struct SchedSample
{
    std::string name;
    /** Backend that actually ran ("iterative" on the hot path — the
     *  exact backend must never be selected here; check_perf asserts
     *  on this field). */
    std::string scheduler;
    int ops = 0;
    int ii = 0;
    int repeats = 0;
    long long steps = 0;
    double wallSeconds = 0.0;
    double stepsPerSecond = 0.0;
};

SchedSample
measureScheduler(const ir::Loop& loop, const machine::MachineModel& machine,
                 int repeats)
{
    SchedSample sample;
    sample.name = loop.name();
    sample.ops = loop.size();
    sample.repeats = repeats;

    const auto graph = graph::buildDepGraph(loop, machine);
    const auto sccs = graph::findSccs(graph);
    const sched::ScheduleOptions options;

    const auto start = Clock::now();
    for (int i = 0; i < repeats; ++i) {
        const auto outcome =
            sched::schedule(loop, machine, graph, sccs, options);
        sample.ii = outcome.schedule.ii;
        sample.scheduler = outcome.scheduler;
        sample.steps += outcome.totalSteps;
    }
    sample.wallSeconds = secondsSince(start);
    sample.stepsPerSecond =
        static_cast<double>(sample.steps) /
        std::max(sample.wallSeconds, 1e-12);
    return sample;
}

/** One BatchPipeliner throughput sample. */
struct BatchSample
{
    std::string name;
    int loops = 0;
    int threads = 0;
    /** Whole-batch repetitions the calibration loop accumulated. */
    int runs = 0;
    double wallSeconds = 0.0;
    double loopsPerSecond = 0.0;
};

/** One MRT probe-kernel sample. */
struct MrtSample
{
    std::string name;
    long long operations = 0;
    /** Candidate issue times answered per call (II for a slot scan). */
    int coverage = 1;
    double wallSeconds = 0.0;
    double perSecond = 0.0;
};

/**
 * Microbenchmark of the two MRT conflict kernels against one
 * realistically loaded table: the compiled single-time probe and the
 * word-parallel whole-window slot scan. One slot scan answers the same
 * question as II single-time probes.
 */
std::vector<MrtSample>
measureMrtKernels(const machine::MachineModel& machine, bool quick)
{
    const int num_resources = machine.numResources();
    const int ii = 16;
    constexpr int kNumOps = 64;
    sched::ModuloReservationTable mrt(ii, num_resources);

    // Deterministically fill roughly half the table with random ops so
    // probes see a realistic mix of hits and misses.
    std::mt19937 rng(12345);
    std::uniform_int_distribution<int> num_uses(2, 5);
    std::uniform_int_distribution<int> use_time(0, 2 * ii);
    std::uniform_int_distribution<int> resource(0, num_resources - 1);
    const auto random_table = [&] {
        machine::ReservationTable table;
        const int n = num_uses(rng);
        for (int i = 0; i < n; ++i)
            table.addUse(use_time(rng), resource(rng));
        return table;
    };
    const auto random_compiled = [&] {
        return machine::CompiledReservationTable(random_table(), ii,
                                                 num_resources);
    };
    for (int op = 0; op < kNumOps; ++op) {
        const auto table = random_compiled();
        if (table.selfConflicts())
            continue;
        const int t = mrt.firstFreeSlot(table, 0);
        if (t >= 0)
            mrt.reserve(op, table, t);
    }

    constexpr int kNumProbes = 16;
    std::vector<machine::CompiledReservationTable> compiled;
    for (int i = 0; i < kNumProbes; ++i) {
        auto table = random_compiled();
        while (table.selfConflicts())
            table = random_compiled();
        compiled.push_back(std::move(table));
    }

    const long long iterations = quick ? 100'000 : 4'000'000;
    std::vector<MrtSample> samples;
    long long sink = 0;
    const auto run = [&](const char* name, int coverage, auto&& body) {
        const auto start = Clock::now();
        for (long long i = 0; i < iterations; ++i)
            sink += body(static_cast<int>(i % kNumProbes),
                         static_cast<int>(i % (2 * ii)));
        MrtSample sample;
        sample.name = name;
        sample.operations = iterations;
        sample.coverage = coverage;
        sample.wallSeconds = secondsSince(start);
        sample.perSecond = static_cast<double>(iterations) /
                           std::max(sample.wallSeconds, 1e-12);
        samples.push_back(std::move(sample));
    };
    run("mask_probe", 1, [&](int p, int t) {
        return mrt.conflicts(compiled[p], t) ? 1 : 0;
    });
    // One scan answers "first free of the II candidates", i.e. the work
    // FindTimeSlot previously spread over up to II single-time probes.
    run("slot_scan", ii,
        [&](int p, int t) { return mrt.firstFreeSlot(compiled[p], t); });
    if (sink == 42)
        std::cout << "";
    return samples;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string golden_path;
    std::string write_golden_path;
    std::string out_path = "BENCH_sched_hotpath.json";
    std::string baseline_path;
    std::vector<int> thread_counts = {1, 2, 4, 8};
    bool quick = false;
    bool scaling_gate = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--golden") == 0 && i + 1 < argc)
            golden_path = argv[++i];
        else if (std::strcmp(argv[i], "--write-golden") == 0 && i + 1 < argc)
            write_golden_path = argv[++i];
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
        else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc)
            baseline_path = argv[++i];
        else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            thread_counts = parseThreadList(argv[++i]);
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--scaling-gate") == 0)
            scaling_gate = true;
        else {
            std::cerr << "usage: bench_sched_hotpath [--golden PATH] "
                         "[--write-golden PATH] [--out PATH] "
                         "[--baseline PATH] [--threads a,b,c] [--quick] "
                         "[--scaling-gate]\n";
            return 2;
        }
    }
    if (thread_counts.empty()) {
        std::cerr << "bench_sched_hotpath: bad --threads list\n";
        return 2;
    }

    const auto machine = machine::cydra5();

    // --- Identity on the Cydra-5 kernel corpus -------------------------
    const auto identity = measureIdentity();
    if (!write_golden_path.empty()) {
        writeGolden(identity, write_golden_path);
        std::cout << "wrote golden identity for " << identity.size()
                  << " kernels to " << write_golden_path << "\n";
        return 0;
    }
    if (!golden_path.empty() && checkIdentity(identity, golden_path) != 0)
        return 1;

    // --- Scheduler-only steps/second over a loop-size sweep ------------
    // Unroll streaming/stencil kernels to hit the target op counts; the
    // repeat counts keep each sample's wall time well above timer noise.
    struct SweepPoint
    {
        const char* kernel;
        int targetOps;
        int repeats;
    };
    const std::vector<SweepPoint> sweep = {
        {"daxpy", 50, 4000},      {"daxpy", 100, 2000},
        {"daxpy", 200, 1200},     {"daxpy", 400, 600},
        {"daxpy", 800, 200},      {"hydro_frag", 200, 1000},
        {"stencil3", 400, 300},
    };

    support::TextTable sched_table("scheduler steps/second (Cydra 5)");
    sched_table.addHeader(
        {"loop", "ops", "II", "repeats", "steps", "wall s", "steps/s"});
    std::vector<SchedSample> sched_samples;
    for (const auto& point : sweep) {
        const auto base = workloads::kernelByName(point.kernel);
        const int factor =
            std::max(1, point.targetOps / std::max(1, base.loop.size()));
        ir::Loop loop = factor == 1
                            ? base.loop
                            : transform::unrollLoop(base.loop, factor);
        const int repeats = quick ? std::max(1, point.repeats / 40)
                                  : point.repeats;
        auto sample = measureScheduler(loop, machine, repeats);
        sample.name = std::string(point.kernel) + "_x" +
                      std::to_string(factor);
        sched_table.addRow({sample.name, std::to_string(sample.ops),
                            std::to_string(sample.ii),
                            std::to_string(sample.repeats),
                            std::to_string(sample.steps),
                            support::formatDouble(sample.wallSeconds, 3),
                            support::formatDouble(sample.stepsPerSecond,
                                                  0)});
        sched_samples.push_back(std::move(sample));
    }
    sched_table.print(std::cout);
    std::cout << "\n";

    // --- BatchPipeliner loops/second across thread counts --------------
    // A mixed batch of mid/large unrolled loops; every thread count must
    // produce the same schedules (BatchPipeliner guarantees it).
    std::vector<ir::Loop> batch_loops;
    for (const auto& spec :
         {std::pair<const char*, int>{"daxpy", 32},
          std::pair<const char*, int>{"hydro_frag", 12},
          std::pair<const char*, int>{"stencil3", 20},
          std::pair<const char*, int>{"dot_bs4", 12}}) {
        const auto base = workloads::kernelByName(spec.first);
        const int copies = quick ? 2 : 16;
        for (int c = 0; c < copies; ++c)
            batch_loops.push_back(
                transform::unrollLoop(base.loop, spec.second));
    }

    // Self-calibrating measurement: the mixed batch alone takes ~50 ms,
    // well inside scheduler-jitter territory, so each thread count
    // repeats the whole batch until a minimum wall time has accumulated
    // and reports the aggregate rate.
    const double min_batch_wall = quick ? 0.05 : 0.75;
    support::TextTable batch_table("BatchPipeliner throughput");
    batch_table.addHeader(
        {"loops", "threads", "runs", "wall s", "loops/s"});
    std::vector<BatchSample> batch_samples;
    for (const int threads : thread_counts) {
        core::BatchPipeliner batch(
            machine, core::BatchOptions{}.withThreads(threads));
        BatchSample sample;
        sample.name = "batch_t" + std::to_string(threads);
        sample.loops = static_cast<int>(batch_loops.size());
        sample.threads = threads;
        const auto start = Clock::now();
        do {
            const auto result = batch.run(batch_loops);
            if (result.failures() != 0) {
                std::cerr << "batch sweep: " << result.failures()
                          << " loops failed to pipeline\n";
                return 1;
            }
            ++sample.runs;
            sample.wallSeconds = secondsSince(start);
        } while (sample.wallSeconds < min_batch_wall);
        sample.loopsPerSecond =
            static_cast<double>(sample.loops) * sample.runs /
            std::max(sample.wallSeconds, 1e-12);
        batch_table.addRow({std::to_string(sample.loops),
                            std::to_string(sample.threads),
                            std::to_string(sample.runs),
                            support::formatDouble(sample.wallSeconds, 3),
                            support::formatDouble(sample.loopsPerSecond,
                                                  1)});
        batch_samples.push_back(std::move(sample));
    }
    batch_table.print(std::cout);

    // Conditional scaling gate: on real many-core hardware the batch
    // driver must deliver >= 3x at 8 threads over 1; on smaller
    // machines (CI containers pinned to a core or two) the numbers are
    // still recorded but cannot gate.
    const unsigned hardware_threads = std::thread::hardware_concurrency();
    double batch_t1_rate = 0.0;
    double batch_t8_rate = 0.0;
    for (const auto& s : batch_samples) {
        if (s.threads == 1)
            batch_t1_rate = s.loopsPerSecond;
        if (s.threads == 8)
            batch_t8_rate = s.loopsPerSecond;
    }
    const double batch_scaling =
        batch_t1_rate > 0.0 ? batch_t8_rate / batch_t1_rate : 0.0;
    const bool gate_enforced = scaling_gate && hardware_threads >= 8 &&
                               batch_t1_rate > 0.0 && batch_t8_rate > 0.0;
    if (batch_t1_rate > 0.0 && batch_t8_rate > 0.0) {
        std::cout << "batch scaling t8/t1: "
                  << support::formatDouble(batch_scaling, 2) << "x ("
                  << hardware_threads << " hardware threads, gate "
                  << (gate_enforced ? "enforced" : "not enforced")
                  << ")\n";
    }
    std::cout << "\n";

    // --- MRT probe kernels ---------------------------------------------
    const auto mrt_samples = measureMrtKernels(machine, quick);
    support::TextTable mrt_table("MRT probe kernels (ii=16, half full)");
    mrt_table.addHeader({"kernel", "calls", "wall s", "calls/s",
                         "candidates/s", "vs mask_probe"});
    const double mask_rate = mrt_samples.front().perSecond;
    for (const auto& s : mrt_samples) {
        const double candidate_rate = s.perSecond * s.coverage;
        mrt_table.addRow(
            {s.name, std::to_string(s.operations),
             support::formatDouble(s.wallSeconds, 3),
             support::formatDouble(s.perSecond, 0),
             support::formatDouble(candidate_rate, 0),
             support::formatDouble(candidate_rate / mask_rate, 2) + "x"});
    }
    mrt_table.print(std::cout);

    // --- Emit the JSON report ------------------------------------------
    {
        std::ofstream out(out_path);
        out << "{\n  \"schema\": \"ims.bench_sched_hotpath.v1\",\n"
            << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
            << "  \"hardware_concurrency\": " << hardware_threads << ",\n"
            << "  \"batch_scaling_t8_over_t1\": " << batch_scaling << ",\n"
            << "  \"gate_enforced\": " << (gate_enforced ? "true" : "false")
            << ",\n"
            << "  \"sched\": [\n";
        for (std::size_t i = 0; i < sched_samples.size(); ++i) {
            const auto& s = sched_samples[i];
            out << "    {\"name\": \"" << s.name << "\", \"scheduler\": \""
                << s.scheduler << "\", \"ops\": "
                << s.ops << ", \"ii\": " << s.ii << ", \"repeats\": "
                << s.repeats << ", \"steps\": " << s.steps
                << ", \"wall_seconds\": " << s.wallSeconds
                << ", \"steps_per_second\": " << s.stepsPerSecond << "}"
                << (i + 1 < sched_samples.size() ? "," : "") << "\n";
        }
        out << "  ],\n  \"batch\": [\n";
        for (std::size_t i = 0; i < batch_samples.size(); ++i) {
            const auto& s = batch_samples[i];
            out << "    {\"name\": \"" << s.name << "\", \"loops\": "
                << s.loops << ", \"threads\": " << s.threads
                << ", \"runs\": " << s.runs
                << ", \"wall_seconds\": " << s.wallSeconds
                << ", \"loops_per_second\": " << s.loopsPerSecond << "}"
                << (i + 1 < batch_samples.size() ? "," : "") << "\n";
        }
        out << "  ],\n  \"mrt\": [\n";
        for (std::size_t i = 0; i < mrt_samples.size(); ++i) {
            const auto& s = mrt_samples[i];
            out << "    {\"name\": \"" << s.name << "\", \"calls\": "
                << s.operations << ", \"coverage\": " << s.coverage
                << ", \"wall_seconds\": " << s.wallSeconds
                << ", \"calls_per_second\": " << s.perSecond << "}"
                << (i + 1 < mrt_samples.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }
    std::cout << "\nwrote " << out_path << "\n";

    // --- Regression gate against the checked-in baseline ---------------
    if (!baseline_path.empty()) {
        const std::string baseline_text = readFile(baseline_path);
        const double tolerance = 0.90; // fail on >10% regression
        int regressions = 0;
        auto check = [&](const std::string& name, double current,
                         double baseline) {
            if (baseline <= 0.0)
                return;
            if (current < tolerance * baseline) {
                std::cerr << "perf regression: " << name << " "
                          << support::formatDouble(current, 0) << " vs "
                          << support::formatDouble(baseline, 0)
                          << " baseline ("
                          << support::formatDouble(
                                 100.0 * (1.0 - current / baseline), 1)
                          << "% slower)\n";
                ++regressions;
            }
        };
        std::map<std::string, double> base_sched;
        for (const auto& object :
             parseObjectArray(baseline_text, "sched"))
            base_sched[object.at("name")] =
                std::atof(object.at("steps_per_second").c_str());
        for (const auto& s : sched_samples) {
            const auto it = base_sched.find(s.name);
            if (it != base_sched.end())
                check("sched " + s.name, s.stepsPerSecond, it->second);
        }
        std::map<std::string, double> base_batch;
        for (const auto& object :
             parseObjectArray(baseline_text, "batch"))
            base_batch[object.at("name")] =
                std::atof(object.at("loops_per_second").c_str());
        for (const auto& s : batch_samples) {
            const auto it = base_batch.find(s.name);
            if (it != base_batch.end())
                check(s.name, s.loopsPerSecond, it->second);
        }
        std::map<std::string, double> base_mrt;
        for (const auto& object : parseObjectArray(baseline_text, "mrt"))
            base_mrt[object.at("name")] =
                std::atof(object.at("calls_per_second").c_str());
        for (const auto& s : mrt_samples) {
            const auto it = base_mrt.find(s.name);
            if (it != base_mrt.end())
                check("mrt " + s.name, s.perSecond, it->second);
        }
        if (regressions != 0)
            return 1;
        std::cout << "baseline check passed (tolerance "
                  << support::formatDouble(100.0 * (1.0 - tolerance), 0)
                  << "%)\n";
    }

    if (gate_enforced && batch_scaling < 3.0) {
        std::cerr << "batch scaling gate failed: t8/t1 = "
                  << support::formatDouble(batch_scaling, 2)
                  << "x < 3.0x with " << hardware_threads
                  << " hardware threads\n";
        return 1;
    }
    return 0;
}
