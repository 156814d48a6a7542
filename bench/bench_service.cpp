/**
 * @file
 * Schedule-service traffic replay: content-addressed cache hit rate and
 * hit-vs-cold latency over a realistic request mix.
 *
 * The corpus is every kernel-library loop plus a fixed-seed stream of
 * fuzz-profile loops, rendered to request text via the canonical printer.
 * The traffic is a skewed stream (quadratically biased toward low
 * indices, like real compiler drivers re-submitting the same hot loops)
 * submitted through the async worker queue, then replayed a second time
 * so the whole stream should be served from the cache.
 *
 * Three gates:
 *
 *  1. **Identity** (always enforced): every response — hit or miss, at
 *     any worker count — must fingerprint identically to a cold
 *     single-threaded run of the same request (fingerprintResult covers
 *     the schedule, the rendered report and all diagnostics). A
 *     violation means the cache returned the wrong schedule and fails
 *     the bench regardless of timing.
 *  2. **Replay hit rate** (always enforced): the second pass over the
 *     stream must hit on >= --min-hit-rate (default 0.95) of requests.
 *     The cache is sized to hold the corpus, so anything lower means
 *     keys are unstable across identical requests.
 *  3. **Hit latency** (enforced under check_perf.sh via
 *     --min-hit-speedup): p50 hit service time must beat p50 cold
 *     service time by at least the given factor (default gate 10x) —
 *     the point of memoization is that a hit costs parse+hash+lookup,
 *     not a scheduling run.
 *
 * Usage:
 *   bench_service [--out PATH] [--threads N] [--requests N]
 *                 [--fuzz-loops N] [--min-hit-rate X]
 *                 [--min-hit-speedup X] [--quick]
 */
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/pipeliner.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "machine/cydra5.hpp"
#include "service/schedule_service.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace ims;

double
percentile(std::vector<double> values, double fraction)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto index = static_cast<std::size_t>(
        fraction * static_cast<double>(values.size() - 1));
    return values[index];
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out_path = "BENCH_service.json";
    int threads = 4;
    int requests = 2000;
    int fuzz_loops = 150;
    double min_hit_rate = 0.95;
    double min_hit_speedup = 0.0; // 0 = report only; check_perf gates
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
        else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
            threads = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
            requests = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--fuzz-loops") == 0 && i + 1 < argc)
            fuzz_loops = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--min-hit-rate") == 0 && i + 1 < argc)
            min_hit_rate = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--min-hit-speedup") == 0 &&
                 i + 1 < argc)
            min_hit_speedup = std::atof(argv[++i]);
        else if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else {
            std::cerr << "usage: bench_service [--out PATH] [--threads N] "
                         "[--requests N] [--fuzz-loops N] "
                         "[--min-hit-rate X] [--min-hit-speedup X] "
                         "[--quick]\n";
            return 2;
        }
    }
    if (quick) {
        requests = std::min(requests, 400);
        fuzz_loops = std::min(fuzz_loops, 40);
    }

    // Corpus: kernel library + fixed-seed fuzz loops, as request text.
    std::vector<std::string> corpus;
    for (const auto& workload : workloads::kernelLibrary())
        corpus.push_back(ir::printLoop(workload.loop));
    {
        support::Rng rng(7);
        const auto profile = workloads::fuzzProfile();
        for (int i = 0; i < fuzz_loops; ++i)
            corpus.push_back(ir::printLoop(workloads::generateLoop(
                rng, "svc_fuzz_" + std::to_string(i), profile)));
    }

    // The service runs the full verification stack (structural check +
    // sim-equivalence oracle) on every miss: a memoizing service should
    // pay for verification exactly once per unique request and serve
    // every repeat from the cache.
    const core::PipelinerOptions pipeline_options =
        core::PipelinerOptions{}.withSimVerification(true);

    // Cold single-threaded reference fingerprints, one per unique loop —
    // the oracle every service response is compared against.
    const auto machine = machine::cydra5();
    std::vector<std::uint64_t> reference(corpus.size(), 0);
    {
        const core::SoftwarePipeliner pipeliner(machine, pipeline_options);
        for (std::size_t i = 0; i < corpus.size(); ++i) {
            const ir::Loop loop = ir::parseLoop(corpus[i]);
            const auto result =
                pipeliner.pipeline(core::PipelineRequest(loop));
            reference[i] = service::fingerprintResult(loop, machine, result);
        }
    }

    // Skewed request stream: index = floor(U^2 * N) re-submits the low
    // indices (the kernel library) far more often than the fuzz tail.
    std::vector<std::size_t> stream;
    stream.reserve(static_cast<std::size_t>(requests));
    {
        support::Rng rng(11);
        for (int i = 0; i < requests; ++i) {
            const double u =
                static_cast<double>(rng.next() >> 11) / 9007199254740992.0;
            stream.push_back(std::min(
                corpus.size() - 1,
                static_cast<std::size_t>(u * u *
                                         static_cast<double>(corpus.size()))));
        }
    }
    static const char* kClients[] = {"alpha", "beta", "gamma", "delta"};

    service::ScheduleService server(
        service::ServiceOptions{}
            .withPipelineOptions(pipeline_options)
            .withThreads(threads)
            // The bench measures cache behavior, not admission control:
            // size the queue so a whole pass can be in flight at once.
            .withMaxQueuedRequests(static_cast<std::size_t>(requests))
            .withCache(service::CacheOptions{corpus.size() * 2}));

    int identity_violations = 0;
    std::vector<double> cold_ms;
    std::vector<double> hit_ms;
    std::vector<double> replay_ms;
    std::size_t pass1_hits = 0;
    std::size_t replay_hits = 0;

    const auto run_pass = [&](int pass) {
        std::vector<service::ServiceResponse> responses(stream.size());
        for (std::size_t i = 0; i < stream.size(); ++i) {
            service::ServiceRequest request;
            request.client = kClients[i % 4];
            request.loopText = corpus[stream[i]];
            server.submitAsync(
                std::move(request),
                [&responses, i](const service::ServiceResponse& response) {
                    responses[i] = response;
                });
        }
        server.drain();
        for (std::size_t i = 0; i < responses.size(); ++i) {
            const service::ServiceResponse& response = responses[i];
            if (!response.ok()) {
                std::cerr << "bench_service: request failed: "
                          << response.errorCode << " "
                          << response.errorMessage << "\n";
                ++identity_violations;
                continue;
            }
            const std::uint64_t fingerprint = service::fingerprintResult(
                *response.loop, response.model->model, *response.result);
            if (fingerprint != reference[stream[i]]) {
                std::cerr << "identity violation: " << response.loopName
                          << " pass " << pass
                          << (response.cacheHit ? " (hit)" : " (cold)")
                          << ": fingerprint " << std::hex << fingerprint
                          << " vs reference " << reference[stream[i]]
                          << std::dec << "\n";
                ++identity_violations;
            }
            const double ms = response.serviceSeconds * 1e3;
            if (pass == 1) {
                if (response.cacheHit) {
                    ++pass1_hits;
                    hit_ms.push_back(ms);
                } else {
                    cold_ms.push_back(ms);
                }
            } else {
                if (response.cacheHit) {
                    ++replay_hits;
                    hit_ms.push_back(ms);
                }
                replay_ms.push_back(ms);
            }
        }
    };
    run_pass(1);
    run_pass(2);
    const auto stats = server.stats();

    const double pass1_hit_rate =
        static_cast<double>(pass1_hits) / static_cast<double>(stream.size());
    const double replay_hit_rate = static_cast<double>(replay_hits) /
                                   static_cast<double>(stream.size());
    const double cold_p50 = percentile(cold_ms, 0.50);
    const double cold_p99 = percentile(cold_ms, 0.99);
    const double hit_p50 = percentile(hit_ms, 0.50);
    const double hit_p99 = percentile(hit_ms, 0.99);
    const double hit_speedup = hit_p50 > 0.0 ? cold_p50 / hit_p50 : 0.0;

    support::TextTable table("schedule service: traffic replay (" +
                             std::to_string(corpus.size()) +
                             " unique loops, " +
                             std::to_string(stream.size()) +
                             " requests/pass, " + std::to_string(threads) +
                             " workers)");
    table.addHeader({"metric", "value"});
    table.addRow({"pass-1 hit rate",
                  support::formatDouble(100.0 * pass1_hit_rate, 1) + "%"});
    table.addRow({"replay hit rate",
                  support::formatDouble(100.0 * replay_hit_rate, 1) + "%"});
    table.addRow({"cold p50 / p99 ms",
                  support::formatDouble(cold_p50, 3) + " / " +
                      support::formatDouble(cold_p99, 3)});
    table.addRow({"hit p50 / p99 ms", support::formatDouble(hit_p50, 3) +
                                          " / " +
                                          support::formatDouble(hit_p99, 3)});
    table.addRow(
        {"hit p50 speedup", support::formatDouble(hit_speedup, 1) + "x"});
    table.addRow({"evictions", std::to_string(stats.cache.evictions)});
    table.addRow({"identity violations",
                  std::to_string(identity_violations)});
    table.print(std::cout);

    {
        std::ofstream out(out_path);
        out << "{\n  \"schema\": \"ims.bench_service.v1\",\n"
            << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
            << "  \"svc_threads\": " << threads << ",\n"
            << "  \"svc_unique_loops\": " << corpus.size() << ",\n"
            << "  \"svc_requests_per_pass\": " << stream.size() << ",\n"
            << "  \"svc_hit_rate\": " << pass1_hit_rate << ",\n"
            << "  \"svc_replay_hit_rate\": " << replay_hit_rate << ",\n"
            << "  \"svc_cold_p50_ms\": " << cold_p50 << ",\n"
            << "  \"svc_cold_p99_ms\": " << cold_p99 << ",\n"
            << "  \"svc_hit_p50_ms\": " << hit_p50 << ",\n"
            << "  \"svc_hit_p99_ms\": " << hit_p99 << ",\n"
            << "  \"svc_hit_p50_speedup\": " << hit_speedup << ",\n"
            << "  \"svc_identity_violations\": " << identity_violations
            << ",\n"
            << "  \"svc_min_hit_rate\": " << min_hit_rate << ",\n"
            << "  \"svc_min_hit_speedup\": " << min_hit_speedup << ",\n"
            << "  \"svc_cache\": " << stats.toJson() << "\n}\n";
    }
    std::cout << "wrote " << out_path << "\n";

    if (identity_violations != 0) {
        std::cerr << "bench_service: " << identity_violations
                  << " identity violations (cached != cold)\n";
        return 1;
    }
    if (replay_hit_rate < min_hit_rate) {
        std::cerr << "bench_service: replay hit rate "
                  << support::formatDouble(100.0 * replay_hit_rate, 1)
                  << "% below the "
                  << support::formatDouble(100.0 * min_hit_rate, 1)
                  << "% floor\n";
        return 1;
    }
    if (min_hit_speedup > 0.0 && hit_speedup < min_hit_speedup) {
        std::cerr << "bench_service: hit p50 speedup "
                  << support::formatDouble(hit_speedup, 1) << "x below the "
                  << support::formatDouble(min_hit_speedup, 1)
                  << "x floor\n";
        return 1;
    }
    return 0;
}
