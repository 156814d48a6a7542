/**
 * @file
 * serve_mix: the ims-serve binary over its stdin/stdout line protocol,
 * under open-loop load from one generator thread. Requests come from four
 * clients and are spread over the four stock machines: repeats of a hot
 * set (cache hits) mixed with a trickle of never-seen corpus-generator
 * loops (misses). The unique set exceeds the server's cache capacity, so
 * LRU eviction runs beside the reads.
 *
 * Each request is timed from the moment it was due to be sent to the
 * moment its result line arrives. Every result line must equal, byte for
 * byte, the line computed before the run from a cold in-process
 * SoftwarePipeliner plus service::fingerprintResult.
 *
 * The traced run adds the server-side split (queue, service, protocol)
 * from the `meta` lines and replays the request stream in-process through
 * the traced ScheduleService::handle() replica.
 */
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "inputs.hpp"
#include "ir/parser.hpp"
#include "replica.hpp"
#include "service/model_registry.hpp"
#include "service/schedule_service.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "trace.hpp"
#include "workloads/profile_model.hpp"

extern char** environ;

namespace perfbench {

using namespace ims;

namespace {

constexpr int kClients = 4;
constexpr int kHotItems = 96;
constexpr double kMissShare = 0.05;
constexpr int kSetups = 5;

/** ims-serve as a child process with its stdin and stdout piped. */
class ServeProcess
{
  public:
    ServeProcess(const std::string& binary, int threads, int capacity)
    {
        int to_child[2];
        int from_child[2];
        if (pipe2(to_child, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe failed");
        if (pipe2(from_child, O_CLOEXEC) != 0) {
            close(to_child[0]);
            close(to_child[1]);
            throw std::runtime_error("pipe failed");
        }
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
        posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
        const std::string threads_text = std::to_string(threads);
        const std::string capacity_text = std::to_string(capacity);
        std::vector<std::string> args = {
            binary, "--threads", threads_text, "--cache-capacity",
            capacity_text};
        std::vector<char*> argv;
        for (auto& arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        close(to_child[0]);
        close(from_child[1]);
        in_ = to_child[1];
        out_ = from_child[0];
        if (rc != 0) {
            pid_ = -1;
            close(in_);
            close(out_);
            throw std::runtime_error("cannot start " + binary + ": " +
                                     std::strerror(rc));
        }
    }

    /** Stops the server (EOF on its stdin) and waits for it to exit. */
    ~ServeProcess()
    {
        if (pid_ > 0)
            finish();
    }

    ServeProcess(const ServeProcess&) = delete;
    ServeProcess& operator=(const ServeProcess&) = delete;

    pid_t pid() const { return pid_; }

    void
    send(const std::string& text)
    {
        std::size_t done = 0;
        while (done < text.size()) {
            const ssize_t n = write(in_, text.data() + done, text.size() - done);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("ims-serve stdin closed");
            done += static_cast<std::size_t>(n);
        }
    }

    /** Next line of the server's stdout, without the newline. */
    std::string
    readLine()
    {
        for (;;) {
            const std::size_t newline = buffer_.find('\n', scanned_);
            if (newline != std::string::npos) {
                std::string line = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                scanned_ = 0;
                return line;
            }
            scanned_ = buffer_.size();
            char chunk[65536];
            const ssize_t n = read(out_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("ims-serve stdout closed");
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** Kill the server, e.g. to unblock a writer after a read error. */
    void
    kill()
    {
        if (pid_ > 0)
            ::kill(pid_, SIGKILL);
    }

    /** Close stdin, wait for exit; true iff the server exited with 0. */
    bool
    finish()
    {
        close(in_);
        close(out_);
        int status = 0;
        while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
        }
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
    int in_ = -1;
    int out_ = -1;
    std::string buffer_;
    std::size_t scanned_ = 0;
};

/** The numeric value after `key` in a line, e.g. "queue_ms=". */
double
field(const std::string& line, const std::string& key)
{
    const std::size_t at = line.find(key);
    if (at == std::string::npos)
        throw std::runtime_error("missing " + key + " in: " + line);
    return std::strtod(line.c_str() + at + key.size(), nullptr);
}

std::string
requestText(const ServeItem& item, int client)
{
    return "schedule " + std::to_string(item.loopText.size()) + " client=c" +
           std::to_string(client) + " machine=" + item.machine + "\n" +
           item.loopText + "\n";
}

/** One planned request: an item of the hot set or of the miss list. */
struct Planned
{
    bool miss = false;
    std::size_t item = 0;
    int client = 0;
};

/** The reference answer of one unique item, from a cold pipeliner. */
struct Expected
{
    std::string line;
    core::PipelineResult result;
};

std::vector<Expected>
coldReference(const std::vector<ServeItem>& items, int threads)
{
    const service::ModelRegistry registry;
    std::vector<Expected> expected(items.size());
    support::parallelFor(items.size(), threads, [&](std::size_t i) {
        const auto model = registry.lookup(items[i].machine);
        const ir::Loop loop = ir::parseLoop(items[i].loopText);
        const core::SoftwarePipeliner pipeliner(model->model);
        expected[i].result = pipeliner.pipeline(core::PipelineRequest(loop));
        expected[i].line =
            serveResultLine(loop, model->model, expected[i].result);
    });
    return expected;
}

/** Keep the first `want` items whose cold run succeeds. */
void
keepSucceeding(std::vector<ServeItem>& items, std::vector<Expected>& expected,
               std::size_t want)
{
    std::vector<ServeItem> kept_items;
    std::vector<Expected> kept_expected;
    for (std::size_t i = 0; i < items.size() && kept_items.size() < want;
         ++i) {
        if (!expected[i].result.ok())
            continue;
        kept_items.push_back(std::move(items[i]));
        kept_expected.push_back(std::move(expected[i]));
    }
    if (kept_items.size() < want)
        throw std::runtime_error("too few schedulable serve items");
    items = std::move(kept_items);
    expected = std::move(kept_expected);
}

/** What the live run observed for one request. */
struct Observed
{
    double latencyMs = 0.0;
    double queueMs = 0.0;
    double serviceMs = 0.0;
    bool hit = false;
    bool correct = false;
};

/**
 * Read one answer: the result line and, for a processed request, its meta
 * line. Returns false when the result line differs from `expected`.
 */
bool
readAnswer(ServeProcess& server, const std::string& expected,
           Observed& observed)
{
    const std::string line = server.readLine();
    if (line.rfind("result ", 0) != 0)
        return false;
    const std::string meta = server.readLine();
    observed.hit = field(meta, "hit=") != 0.0;
    observed.queueMs = field(meta, "queue_ms=");
    observed.serviceMs = field(meta, "service_ms=");
    return line == expected;
}

} // namespace

Outcome
runServeMix(const Args& args)
{
    Outcome outcome;
    const int server_threads = std::max(1, args.threads - 1);
    const double load_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
    const auto requests =
        static_cast<std::size_t>(std::max(1.0, args.rate * load_seconds));

    // The request plan: which requests miss, which hot item the others hit.
    support::Rng rng(mixSeed(args.seed, 11));
    std::vector<Planned> plan(requests);
    std::size_t misses = 0;
    for (auto& planned : plan) {
        planned.client = rng.uniformInt(0, kClients - 1);
        planned.miss = rng.bernoulli(kMissShare);
        planned.item = planned.miss ? misses++
                                    : static_cast<std::size_t>(
                                          rng.uniformInt(0, kHotItems - 1));
    }

    // The inputs and their reference answers (untimed). Spare candidates
    // replace the few loops that fail to schedule on their machine. The
    // misses come from one fixed stream for every seed: the few largest
    // generated loops hold up the in-order answers behind them and so set
    // the latency tail, which would otherwise move with the seed.
    std::vector<ServeItem> hot = corpusGeneratorItems(
        mixSeed(args.seed, 12), "hot_", kHotItems + kHotItems / 4);
    std::vector<ServeItem> cold = corpusGeneratorItems(
        13, "miss_", static_cast<int>(misses + misses / 4 + 8));
    std::vector<Expected> hot_expected = coldReference(hot, args.threads);
    std::vector<Expected> cold_expected = coldReference(cold, args.threads);
    keepSucceeding(hot, hot_expected, kHotItems);
    keepSucceeding(cold, cold_expected, misses);

    const auto item_of = [&](const Planned& p) -> const ServeItem& {
        return p.miss ? cold[p.item] : hot[p.item];
    };
    const auto expected_of = [&](const Planned& p) -> const Expected& {
        return p.miss ? cold_expected[p.item] : hot_expected[p.item];
    };
    std::vector<std::string> texts;
    texts.reserve(requests);
    for (const Planned& p : plan)
        texts.push_back(requestText(item_of(p), p.client));

    // Set-up, timed several times (the last server is kept): start
    // ims-serve, wait until it answers, warm the hot set.
    std::vector<double> setup_seconds;
    std::unique_ptr<ServeProcess> server;
    for (int s = 0; s < kSetups; ++s) {
        if (server && !server->finish())
            throw std::runtime_error("ims-serve exited abnormally");
        server.reset();
        const auto start = Clock::now();
        server = std::make_unique<ServeProcess>(
            args.serveBinary, server_threads, args.cacheCapacity);
        std::string warm;
        for (std::size_t i = 0; i < hot.size(); ++i)
            warm += requestText(hot[i], static_cast<int>(i) % kClients);
        server->send(warm + "machines\n");
        for (std::size_t i = 0; i < hot.size(); ++i) {
            Observed ignored;
            ++outcome.attempted;
            if (!readAnswer(*server, hot_expected[i].line, ignored))
                ++outcome.failed;
        }
        if (server->readLine().rfind("ok", 0) != 0)
            throw std::runtime_error("ims-serve did not answer");
        setup_seconds.push_back(secondsSince(start));
    }

    // The open-loop run: one generator thread sends each request at its
    // due time; this thread reads the answers, which come in order.
    std::vector<Observed> observed(requests);
    std::vector<double> lag_ms(requests, 0.0);
    const auto interval = std::chrono::duration<double>(1.0 / args.rate);
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    const auto due = [&](std::size_t j) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           interval * static_cast<double>(j));
    };
    std::exception_ptr writer_error;
    std::thread writer([&] {
        try {
            for (std::size_t j = 0; j < requests; ++j) {
                std::this_thread::sleep_until(due(j));
                lag_ms[j] = std::chrono::duration<double, std::milli>(
                                Clock::now() - due(j))
                                .count();
                server->send(texts[j]);
            }
            server->send("stats\n");
        } catch (...) {
            writer_error = std::current_exception();
        }
    });
    std::string stats_line;
    Clock::time_point last_answer = start;
    try {
        for (std::size_t j = 0; j < requests; ++j) {
            Observed& o = observed[j];
            o.correct = readAnswer(*server, expected_of(plan[j]).line, o);
            last_answer = Clock::now();
            o.latencyMs = std::chrono::duration<double, std::milli>(
                              last_answer - due(j))
                              .count();
        }
        stats_line = server->readLine();
    } catch (...) {
        server->kill();
        writer.join();
        throw;
    }
    writer.join();
    if (writer_error)
        std::rethrow_exception(writer_error);
    const double server_rss_mb = peakRssMb(std::to_string(server->pid()));
    server->send("quit\n");
    if (!server->finish())
        throw std::runtime_error("ims-serve exited abnormally");

    std::vector<double> latencies;
    std::vector<double> hit_latencies;
    std::vector<double> miss_latencies;
    std::vector<double> queue_ms;
    std::vector<double> protocol_ms;
    double service_seconds = 0.0;
    for (const Observed& o : observed) {
        ++outcome.attempted;
        if (!o.correct) {
            ++outcome.failed;
            continue;
        }
        latencies.push_back(o.latencyMs);
        (o.hit ? hit_latencies : miss_latencies).push_back(o.latencyMs);
        queue_ms.push_back(o.queueMs);
        protocol_ms.push_back(o.latencyMs - o.queueMs - o.serviceMs);
        service_seconds += o.serviceMs / 1e3;
    }
    const double run_seconds =
        std::chrono::duration<double>(last_answer - start).count();
    std::cout << "serve_mix: " << requests << " requests at " << args.rate
              << "/s, " << misses << " misses; hit p50 "
              << quantile(hit_latencies, 0.5) << " ms (n="
              << hit_latencies.size() << "), miss p50 "
              << quantile(miss_latencies, 0.5) << " ms (n="
              << miss_latencies.size() << "), generator lag p99 "
              << quantile(lag_ms, 0.99) << " ms\n";

    // Quality of the unique items the run served, and their work counts.
    std::vector<double> ii_ratios;
    double exec_time = 0.0;
    double exec_bound = 0.0;
    int profile_index = 0;
    LayerCounts counts;
    for (const auto* set : {&hot_expected, &cold_expected}) {
        for (const Expected& e : *set) {
            const auto& artifacts = *e.result.artifacts;
            const int ii = artifacts.outcome.schedule.ii;
            const int mii = artifacts.outcome.mii;
            ii_ratios.push_back(static_cast<double>(ii) / mii);
            workloads::LoopProfile profile;
            do {
                profile = workloads::syntheticProfile(profile_index++);
            } while (!profile.executed);
            exec_time += workloads::executionTime(
                profile, artifacts.outcome.schedule.scheduleLength, ii);
            exec_bound += workloads::executionTime(
                profile, artifacts.minScheduleLength, mii);
            counts.add(e.result);
        }
    }

    if (!args.trace) {
        outcome.metrics["setup_s"] = {quantile(setup_seconds, 0.5), "s"};
        outcome.metrics["throughput_per_s"] = {
            static_cast<double>(latencies.size()) / run_seconds, "1/s"};
        addLatencyMetrics(outcome, latencies, args.sloMs, requests);
        outcome.metrics["ii_over_mii"] = {geomean(ii_ratios), "ratio"};
        outcome.metrics["exec_time_ratio"] = {exec_time / exec_bound,
                                              "ratio"};
        outcome.metrics["peak_rss_mb"] = {server_rss_mb, "MiB"};
        return outcome;
    }

    const auto share = [](double part, double whole) {
        return whole > 0.0 ? part / whole : 0.0;
    };
    outcome.metrics["service.queue_ms"] = {mean(queue_ms), "ms"};
    outcome.metrics["service.protocol_ms"] = {mean(protocol_ms), "ms"};
    outcome.metrics["service.hit_share"] = {
        share(static_cast<double>(hit_latencies.size()),
              static_cast<double>(latencies.size())),
        "share"};
    outcome.metrics["service.evictions"] = {
        field(stats_line, "\"svc_cache_evictions\":"), "count"};
    outcome.metrics["service.hit_latency_p50_ms"] = {
        quantile(hit_latencies, 0.5), "ms"};
    outcome.metrics["service.miss_latency_p50_ms"] = {
        quantile(miss_latencies, 0.5), "ms"};
    outcome.metrics["service.hit_samples"] = {
        static_cast<double>(hit_latencies.size()), "count"};
    outcome.metrics["service.miss_samples"] = {
        static_cast<double>(miss_latencies.size()), "count"};
    outcome.metrics["bench.generator_lag_ms"] = {mean(lag_ms), "ms"};
    outcome.metrics["core.batch_efficiency"] = {
        share(service_seconds, server_threads * run_seconds), "share"};
    counts.addMetrics(outcome);

    // In-process replay of the same stream: each request through the real
    // ScheduleService (untimed layers) and through the traced replica.
    service::ServiceOptions options;
    options.threads = 1;
    options.cache.capacity = static_cast<std::size_t>(args.cacheCapacity);
    service::ScheduleService service(options);
    ServeReplica replica(options.cache);
    Tracer tracer;
    double real_seconds = 0.0;
    double bounds_seconds = 0.0;
    std::uint64_t pipeline_calls = 0;
    std::uint64_t replayed = 0;
    const auto replay = [&](const ServeItem& item, const Expected& expected,
                            int client) {
        service::ServiceRequest request;
        request.client = "c" + std::to_string(client);
        request.machine = item.machine;
        request.loopText = item.loopText;
        const auto t0 = Clock::now();
        const service::ServiceResponse response = service.scheduleNow(request);
        const std::string real_line =
            response.ok() ? serveResultLine(*response.loop,
                                            response.model->model,
                                            *response.result)
                          : "error " + response.errorCode;
        real_seconds += secondsSince(t0);
        const ServeAnswer answer =
            tracedServe(replica, item.machine, item.loopText, tracer,
                        ++replayed);
        if (!answer.hit && answer.result) {
            ++pipeline_calls;
            bounds_seconds += answer.result->telemetry.phaseSeconds(
                support::Phase::kMiiBounds);
        }
        outcome.attempted += 2;
        if (real_line != expected.line || answer.line != expected.line) {
            std::cerr << "replay diverged on " << item.machine << ": "
                      << answer.line << "\n";
            outcome.failed += 2;
        }
    };
    for (std::size_t i = 0; i < hot.size(); ++i)
        replay(hot[i], hot_expected[i], static_cast<int>(i) % kClients);
    const auto replay_start = Clock::now();
    for (std::size_t j = 0;
         j < requests && secondsSince(replay_start) < args.seconds / 2.0; ++j)
        replay(item_of(plan[j]), expected_of(plan[j]), plan[j].client);

    double layer_seconds = 0.0;
    for (const std::string& name : serviceLayerSpans())
        layer_seconds += tracer.totalSeconds(name);
    addPipelineSpanMetrics(outcome, tracer, bounds_seconds, pipeline_calls);
    for (const char* name : {"ir.parse", "ir.print", "service.key",
                             "service.lookup", "service.insert",
                             "service.fingerprint"})
        outcome.metrics[std::string(name) + "_ms"] = {tracer.meanMs(name),
                                                      "ms"};
    outcome.metrics["core.unattributed_share"] = {
        1.0 - layer_seconds / real_seconds, "share"};
    outcome.metrics["bench.trace_overhead_share"] = {
        tracer.totalSeconds("service.request") / real_seconds - 1.0,
        "share"};
    std::cout << "replayed " << replayed << " requests in-process, "
              << pipeline_calls << " misses, unattributed "
              << outcome.metrics["core.unattributed_share"].value << "\n";
    tracer.writeChromeTrace(args.traceOut);
    return outcome;
}

} // namespace perfbench
