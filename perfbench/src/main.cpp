/**
 * @file
 * ims-perfbench: one run of one benchmark workload. perfbench/run.py
 * builds this binary and ims-serve, then calls
 *
 *   ims-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                 --threads <n> --slo-ms <ms> [--rate <1/s>]
 *                 [--cache-capacity <n>] [--serve-binary <path>]
 *                 [--trace-out <path>]
 *
 * and reads the last line of standard output: one JSON object with
 * `correct`, `attempted`, `failed` and `metrics` (every end-to-end metric
 * with --trace 0, every per-layer metric with --trace 1). The exit code
 * is 1 when any output was wrong, 2 on a usage or set-up error.
 */
#include <signal.h>

#include <cstdio>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common.hpp"

namespace {

using namespace perfbench;

/** The metric sets the two kinds of run must print, with their units. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},           {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},   {"slo_met_share", "share"},
    {"ii_over_mii", "ratio"},   {"exec_time_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"graph.build_ms", "ms"},
    {"graph.scc_ms", "ms"},
    {"graph.edges_per_op", "ratio"},
    {"mii.mindist_ms", "ms"},
    {"mii.mindist_inner_steps", "count"},
    {"mii.bounds_ms", "ms"},
    {"sched.schedule_ms", "ms"},
    {"sched.attempts", "count"},
    {"sched.steps", "count"},
    {"sched.unschedules", "count"},
    {"sched.wasted_steps_share", "share"},
    {"sched.list_ms", "ms"},
    {"sched.verify_ms", "ms"},
    {"codegen.generate_ms", "ms"},
    {"codegen.lifetimes_ms", "ms"},
    {"codegen.regalloc_ms", "ms"},
    {"core.pipeline_ms", "ms"},
    {"core.unattributed_share", "share"},
    {"core.batch_efficiency", "share"},
    {"core.work_steals", "count"},
    {"ir.parse_ms", "ms"},
    {"ir.print_ms", "ms"},
    {"service.key_ms", "ms"},
    {"service.lookup_ms", "ms"},
    {"service.fingerprint_ms", "ms"},
    {"service.protocol_ms", "ms"},
    {"service.insert_ms", "ms"},
    {"service.evictions", "count"},
    {"service.hit_share", "share"},
    {"service.queue_ms", "ms"},
    {"service.hit_latency_p50_ms", "ms"},
    {"service.miss_latency_p50_ms", "ms"},
    {"service.hit_samples", "count"},
    {"service.miss_samples", "count"},
    {"bench.generator_lag_ms", "ms"},
    {"bench.trace_overhead_share", "share"},
};

[[noreturn]] void
usage(const std::string& problem)
{
    std::cerr << "ims-perfbench: " << problem
              << "\nusage: ims-perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --threads <n> --slo-ms <ms> "
                 "[--rate <1/s>] [--cache-capacity <n>] "
                 "[--serve-binary <path>] [--trace-out <path>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = value == "1";
            else if (flag == "--trace-out")
                args.traceOut = value;
            else if (flag == "--serve-binary")
                args.serveBinary = value;
            else if (flag == "--threads")
                args.threads = std::stoi(value);
            else if (flag == "--slo-ms")
                args.sloMs = std::stod(value);
            else if (flag == "--rate")
                args.rate = std::stod(value);
            else if (flag == "--cache-capacity")
                args.cacheCapacity = std::stoi(value);
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag);
        }
    }
    const std::set<std::string> workloads = {"corpus_batch", "unroll_ladder",
                                             "hard_ii", "serve_mix"};
    if (!workloads.count(args.workload))
        usage("unknown workload '" + args.workload + "'");
    if (args.seconds <= 0.0 || args.threads < 1 || args.sloMs <= 0.0)
        usage("--seconds, --threads and --slo-ms must be positive");
    if (args.workload == "serve_mix" &&
        (args.rate <= 0.0 || args.cacheCapacity < 1 ||
         args.serveBinary.empty()))
        usage("serve_mix needs --rate, --cache-capacity and --serve-binary");
    if (args.trace && args.traceOut.empty())
        usage("--trace 1 needs --trace-out");
    return args;
}

} // namespace

int
main(int argc, char** argv)
{
#ifndef NDEBUG
    std::cerr << "ims-perfbench: refusing to report from an assert-enabled "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
#endif
    const Args args = parseArgs(argc, argv);
    // A dead ims-serve must surface as a write error, not kill the run.
    signal(SIGPIPE, SIG_IGN);

    Outcome outcome;
    try {
        outcome = args.workload == "serve_mix" ? runServeMix(args)
                                               : runPipelineWorkload(args);
    } catch (const std::exception& error) {
        std::cerr << "ims-perfbench: " << error.what() << "\n";
        return 2;
    }

    // Complete the metric set: a layer a workload does not run reads 0.
    const auto& names = args.trace ? kPerLayer : kEndToEnd;
    for (const auto& [name, unit] : names)
        outcome.metrics.try_emplace(name, Metric{0.0, unit});
    for (const auto& [name, metric] : outcome.metrics) {
        bool known = false;
        for (const auto& entry : names)
            known = known || entry.first == name;
        if (!known) {
            std::cerr << "ims-perfbench: unlisted metric " << name << "\n";
            return 2;
        }
    }

    std::cout << "host hardware_concurrency="
              << std::thread::hardware_concurrency() << "\n";
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                outcome.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed));
    bool first = true;
    for (const auto& [name, metric] : outcome.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), metric.value,
                    metric.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return outcome.failed == 0 ? 0 : 1;
}
