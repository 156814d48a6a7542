#ifndef IMS_PERFBENCH_COMMON_HPP
#define IMS_PERFBENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Command-line settings of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its Chrome trace-event JSON. */
    std::string traceOut;
    /** The ims-serve binary (serve_mix only). */
    std::string serveBinary;
    /** Worker threads for corpus_batch; ims-serve gets one fewer. */
    int threads = 1;
    /** Latency limit behind slo_met_share, per workload. */
    double sloMs = 0.0;
    /** serve_mix: open-loop request rate (requests per second). */
    double rate = 0.0;
    /** serve_mix: the ims-serve cache capacity (entries). */
    int cacheCapacity = 0;
};

/** One named metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main() for printing. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
};

/** Linear-interpolated quantile (q in [0,1]); 0 for an empty sample. */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
mean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

/** Geometric mean of positive values; 0 for an empty sample. */
inline double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Stable 64-bit mix of a seed and a salt (SplitMix64 finalizer). */
inline std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Peak resident set (VmHWM) of a process in MiB; 0 if unreadable. */
double peakRssMb(const std::string& pid = "self");

/**
 * The median, over consecutive windows of 1000 samples (in the order
 * taken), of each window's q-quantile; the plain quantile below two
 * windows. Damps bursts of load from other tenants of the host while
 * keeping at least ten samples beyond a 99th percentile.
 */
double windowedQuantile(const std::vector<double>& values, double q);

/**
 * Latency metrics shared by every workload: the windowed median of
 * `latencies_ms` (the correctly answered requests, in the order taken),
 * and the share of the `attempted` timed requests answered correctly
 * within `slo_ms`. Prints the windowed 90th and 99th percentiles with the
 * sample count; they are not metrics because on a shared host serve_mix's
 * tail swings with the hypervisor's wake-up latency by far more than any
 * bound allows.
 */
void addLatencyMetrics(Outcome& outcome,
                       const std::vector<double>& latencies_ms,
                       double slo_ms, std::uint64_t attempted);

/** corpus_batch, unroll_ladder and hard_ii (pipeline_workloads.cpp). */
Outcome runPipelineWorkload(const Args& args);

/** serve_mix: ims-serve under open-loop load (serve_mix.cpp). */
Outcome runServeMix(const Args& args);

} // namespace perfbench

#endif // IMS_PERFBENCH_COMMON_HPP
