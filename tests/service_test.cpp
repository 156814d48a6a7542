/**
 * @file
 * Tests for the scheduling service: content-addressed cache identity
 * (hits bit-identical to cold runs), LRU eviction, persistence via the
 * canonical round-trip formats, hash-collision safety, admission
 * control, per-client round-robin fairness, and the options codec the
 * cache key is built from.
 */
#include <gtest/gtest.h>

#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeliner.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "machine/cydra5.hpp"
#include "machine/machine_io.hpp"
#include "service/options_codec.hpp"
#include "service/schedule_cache.hpp"
#include "service/schedule_service.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_loops.hpp"

namespace {

using namespace ims;

/** Request corpus: every kernel-library loop plus `fuzz` generated ones. */
std::vector<std::string>
corpusTexts(int fuzz)
{
    std::vector<std::string> texts;
    for (const auto& workload : workloads::kernelLibrary())
        texts.push_back(ir::printLoop(workload.loop));
    support::Rng rng(0x5e21);
    const auto profile = workloads::fuzzProfile();
    for (int i = 0; i < fuzz; ++i)
        texts.push_back(ir::printLoop(workloads::generateLoop(
            rng, "svc_t_" + std::to_string(i), profile)));
    return texts;
}

std::uint64_t
fingerprintOf(const service::ServiceResponse& response)
{
    return service::fingerprintResult(*response.loop,
                                      response.model->model,
                                      *response.result);
}

TEST(ScheduleCacheTest, HitsAreBitIdenticalToColdRuns)
{
    // Kernel corpus + 200 fuzz loops: the first request is a miss, the
    // second a hit, and both must fingerprint identically to a direct
    // single-threaded pipeline run (the cold oracle).
    service::ScheduleService server(
        service::ServiceOptions{}.withThreads(1));
    const core::SoftwarePipeliner oracle(machine::cydra5());

    for (const auto& text : corpusTexts(200)) {
        service::ServiceRequest request;
        request.loopText = text;

        const auto cold = server.scheduleNow(request);
        ASSERT_TRUE(cold.ok()) << cold.errorMessage;
        EXPECT_FALSE(cold.cacheHit);

        const auto hit = server.scheduleNow(request);
        ASSERT_TRUE(hit.ok());
        EXPECT_TRUE(hit.cacheHit) << hit.loopName;
        // The cache hands back the very object it memoized.
        EXPECT_EQ(hit.result.get(), cold.result.get());

        const ir::Loop loop = ir::parseLoop(text);
        const auto reference =
            oracle.pipeline(core::PipelineRequest(loop));
        const std::uint64_t expected = service::fingerprintResult(
            loop, oracle.machine(), reference);
        EXPECT_EQ(fingerprintOf(cold), expected) << cold.loopName;
        EXPECT_EQ(fingerprintOf(hit), expected) << hit.loopName;
    }
}

TEST(ScheduleCacheTest, ConcurrentSubmissionsStayIdentical)
{
    // Same corpus slice through the async queue with several workers and
    // duplicated requests racing each other: every response — whichever
    // of the duplicates won the insert — must match the cold oracle.
    service::ScheduleService server(
        service::ServiceOptions{}.withThreads(4));
    const core::SoftwarePipeliner oracle(machine::cydra5());

    const auto texts = corpusTexts(20);
    std::vector<service::ServiceResponse> responses(3 * texts.size());
    for (std::size_t r = 0; r < responses.size(); ++r) {
        service::ServiceRequest request;
        request.client = "c" + std::to_string(r % texts.size() % 3);
        request.loopText = texts[r % texts.size()];
        server.submitAsync(std::move(request),
                           [&responses, r](const auto& response) {
                               responses[r] = response;
                           });
    }

    std::vector<std::uint64_t> expected;
    for (const auto& text : texts) {
        const ir::Loop loop = ir::parseLoop(text);
        expected.push_back(service::fingerprintResult(
            loop, oracle.machine(),
            oracle.pipeline(core::PipelineRequest(loop))));
    }
    server.drain();
    for (std::size_t r = 0; r < responses.size(); ++r) {
        ASSERT_TRUE(responses[r].ok()) << responses[r].errorMessage;
        EXPECT_EQ(fingerprintOf(responses[r]), expected[r % texts.size()]);
    }
}

TEST(ScheduleCacheTest, EvictsLeastRecentlyUsedUnderSmallCapacity)
{
    service::ScheduleService server(
        service::ServiceOptions{}
            .withThreads(1)
            .withCache(service::CacheOptions{/*capacity=*/4}));
    const auto texts = corpusTexts(0);
    ASSERT_GE(texts.size(), 8u);

    for (int i = 0; i < 8; ++i) {
        service::ServiceRequest request;
        request.loopText = texts[static_cast<std::size_t>(i)];
        ASSERT_TRUE(server.scheduleNow(request).ok());
    }
    auto stats = server.stats();
    EXPECT_EQ(stats.cache.entries, 4u);
    EXPECT_EQ(stats.cache.evictions, 4u);

    // The first loop was evicted: asking again is a miss...
    service::ServiceRequest request;
    request.loopText = texts[0];
    EXPECT_FALSE(server.scheduleNow(request).cacheHit);
    // ...while the most recent one is still resident.
    request.loopText = texts[7];
    EXPECT_TRUE(server.scheduleNow(request).cacheHit);
}

TEST(ScheduleCacheTest, PersistenceRoundTripServesHitsAfterRestart)
{
    const auto texts = corpusTexts(3);
    std::vector<std::uint64_t> fingerprints;
    std::string saved;
    {
        service::ScheduleService server(
            service::ServiceOptions{}.withThreads(1));
        for (std::size_t i = 0; i < 6; ++i) {
            service::ServiceRequest request;
            request.loopText = texts[i];
            const auto response = server.scheduleNow(request);
            ASSERT_TRUE(response.ok());
            fingerprints.push_back(fingerprintOf(response));
        }
        saved = server.saveCacheText();
    }

    // "Restart": a fresh service re-materializes the saved request set
    // by re-running the deterministic pipeline, so every request that
    // was cached before the save is a bit-identical hit afterwards.
    service::ScheduleService reloaded(
        service::ServiceOptions{}.withThreads(1));
    EXPECT_EQ(reloaded.loadCacheText(saved), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
        service::ServiceRequest request;
        request.loopText = texts[i];
        const auto response = reloaded.scheduleNow(request);
        ASSERT_TRUE(response.ok());
        EXPECT_TRUE(response.cacheHit) << response.loopName;
        EXPECT_EQ(fingerprintOf(response), fingerprints[i]);
    }
    // Loading the same document again is an idempotent no-op.
    EXPECT_EQ(reloaded.loadCacheText(saved), 0u);

    EXPECT_THROW(reloaded.loadCacheText("bogus header\n"), support::Error);
}

TEST(ScheduleCacheTest, HostileEntryCountsAreRejected)
{
    // Each count is read whole and checked against the bytes left before
    // anything is allocated: a structured error, never length_error.
    service::ScheduleService server(service::ServiceOptions{}.withThreads(1));
    for (const char* text : {
             "ims-schedule-cache v1\nentry 18446744073709551615 0 0\n",
             "ims-schedule-cache v1\nentry -1 0 0\n",
             "ims-schedule-cache v1\nentry 0 0 5\nabc",
             "ims-schedule-cache v1\nentry 1x 0 0\n",
         }) {
        EXPECT_THROW(service::ScheduleCache::parseSaveText(text),
                     support::Error)
            << text;
        EXPECT_THROW(server.loadCacheText(text), support::Error) << text;
    }
}

TEST(ScheduleCacheTest, LoadsAnEntryWithTheLargestIiIncrease)
{
    // The II walk computes its last candidate, mii + max_ii_increase, in
    // 64 bits: an options text may say any int, and INT_MAX used to
    // overflow int there (a UBSan report in the sanitizer build).
    core::PipelinerOptions options;
    options.schedule.search.maxIiIncrease = std::numeric_limits<int>::max();
    const std::string options_text = service::canonicalOptionsText(options);
    ASSERT_NE(options_text.find("max_ii_increase 2147483647\n"),
              std::string::npos);
    const std::string loop_text =
        ir::printLoop(workloads::kernelByName("daxpy").loop);
    const std::string machine_text = machine::printMachine(machine::cydra5());
    const std::string text =
        "ims-schedule-cache v1\nentry " + std::to_string(loop_text.size()) +
        " " + std::to_string(machine_text.size()) + " " +
        std::to_string(options_text.size()) + "\n" + loop_text +
        machine_text + options_text;

    service::ScheduleService server(service::ServiceOptions{}.withThreads(1));
    EXPECT_EQ(server.loadCacheText(text), 1u);
    EXPECT_EQ(server.saveCacheText(), text);
}

TEST(ScheduleCacheTest, HashCollisionsNeverShareAnEntry)
{
    // Forge two keys with identical digests but different material: the
    // full-material compare must keep them apart (lookup of the second
    // key misses; both can be resident simultaneously).
    service::ScheduleCache cache(service::CacheOptions{16});
    auto a = service::CacheKey::make("loop a\n", "machine m\n", "opts\n");
    auto b = service::CacheKey::make("loop b\n", "machine m\n", "opts\n");
    ASSERT_NE(a.material(), b.material());
    b.hash = a.hash; // simulate a 64-bit collision

    cache.insert(a, core::PipelineResult{});
    EXPECT_EQ(cache.lookup(b), nullptr);
    EXPECT_GE(cache.stats().hashCollisions, 1u);

    cache.insert(b, core::PipelineResult{});
    EXPECT_NE(cache.lookup(a), nullptr);
    EXPECT_NE(cache.lookup(b), nullptr);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ScheduleServiceTest, OverloadedQueueRejectsWithStructuredCode)
{
    // One worker, queue depth 1. Occupy the worker by blocking inside
    // the first request's completion callback, fill the single queue
    // slot, and verify the next submission is rejected inline with the
    // documented "service.overloaded" code.
    service::ScheduleService server(service::ServiceOptions{}
                                        .withThreads(1)
                                        .withMaxQueuedRequests(1));
    const auto texts = corpusTexts(0);

    std::promise<void> gate;
    std::shared_future<void> opened(gate.get_future());
    service::ServiceRequest blocker;
    blocker.client = "blocker";
    blocker.loopText = texts[0];
    server.submitAsync(blocker, [opened](const service::ServiceResponse&) {
        opened.wait();
    });
    // Wait until the worker has dequeued the blocker (queue empty again).
    while (server.stats().queued != 0)
        std::this_thread::yield();

    // Slot 0 is the queued request, slot 1 the one past the bound.
    std::vector<service::ServiceResponse> responses(2);
    for (std::size_t r = 0; r < responses.size(); ++r) {
        service::ServiceRequest request;
        request.client = "q";
        request.loopText = texts[1 + r];
        server.submitAsync(request, [&responses, r](const auto& response) {
            responses[r] = response;
        });
    }
    // The rejection is delivered inline, before the gate opens.
    const auto& rejected = responses[1];
    EXPECT_EQ(rejected.status, service::ServiceResponse::Status::kRejected);
    EXPECT_EQ(rejected.errorCode, "service.overloaded");
    EXPECT_FALSE(rejected.ok());

    gate.set_value();
    server.drain();
    EXPECT_TRUE(responses[0].ok());
    EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(ScheduleServiceTest, DrainsClientsRoundRobin)
{
    // Three clients enqueue three requests each while the single worker
    // is blocked; the service must drain them strictly interleaved
    // (a,b,c,a,b,c,a,b,c), not in arrival order (a,a,a,b,b,b,...).
    service::ScheduleService server(
        service::ServiceOptions{}.withThreads(1));
    const auto texts = corpusTexts(0);

    std::promise<void> gate;
    std::shared_future<void> opened(gate.get_future());
    service::ServiceRequest blocker;
    blocker.client = "blocker";
    blocker.loopText = texts[0];
    server.submitAsync(blocker, [opened](const service::ServiceResponse&) {
        opened.wait();
    });
    while (server.stats().queued != 0)
        std::this_thread::yield();

    std::mutex order_mutex;
    std::vector<std::string> order;
    for (const std::string client : {"a", "b", "c"})
        for (int i = 0; i < 3; ++i) {
            service::ServiceRequest request;
            request.client = client;
            request.loopText = texts[static_cast<std::size_t>(1 + i)];
            server.submitAsync(request,
                               [&, client](const service::ServiceResponse&) {
                                   const std::lock_guard<std::mutex> lock(
                                       order_mutex);
                                   order.push_back(client);
                               });
        }

    gate.set_value();
    server.drain();
    const std::vector<std::string> expected = {"a", "b", "c", "a", "b",
                                               "c", "a", "b", "c"};
    EXPECT_EQ(order, expected);
}

TEST(ScheduleServiceTest, CallbackSeesItsOwnRequestCompleted)
{
    // A request is counted as completed before its callback runs, so a
    // stats() read that the answer precedes (ims-serve's `stats` after
    // every earlier answer is printed) never comes up one short.
    service::ScheduleService server(
        service::ServiceOptions{}.withThreads(1));
    const auto texts = corpusTexts(0);
    std::vector<std::uint64_t> seen(3, 0);
    for (std::size_t r = 0; r < seen.size(); ++r) {
        service::ServiceRequest request;
        request.loopText = texts[r];
        server.submitAsync(request, [&server, &seen, r](const auto&) {
            seen[r] = server.stats().completed;
        });
    }
    server.drain();
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(ScheduleServiceTest, WorkerThreadsClampToAtLeastOne)
{
    // hardware_concurrency() may legitimately return 0; the shared
    // resolveWorkerThreads clamp keeps both the service pool and the
    // batch pipeliner at >= 1 worker.
    EXPECT_GE(support::resolveWorkerThreads(0), 1);
    EXPECT_GE(support::resolveWorkerThreads(-3), 1);
    EXPECT_EQ(support::resolveWorkerThreads(5), 5);
    EXPECT_EQ(support::resolveThreads(0, 0), 1);

    service::ScheduleService defaulted(
        service::ServiceOptions{}.withThreads(0));
    EXPECT_GE(defaulted.workerThreads(), 1);
    service::ScheduleService negative(
        service::ServiceOptions{}.withThreads(-1));
    EXPECT_GE(negative.workerThreads(), 1);
}

TEST(ScheduleServiceTest, StructuredErrorsForBadRequests)
{
    service::ScheduleService server(
        service::ServiceOptions{}.withThreads(1));

    service::ServiceRequest unknown;
    unknown.machine = "no-such-machine";
    unknown.loopText = "loop x\n";
    auto response = server.scheduleNow(unknown);
    EXPECT_EQ(response.status, service::ServiceResponse::Status::kError);
    EXPECT_EQ(response.errorCode, "service.unknown_machine");

    service::ServiceRequest malformed;
    malformed.loopText = "this is not a loop";
    response = server.scheduleNow(malformed);
    EXPECT_EQ(response.status, service::ServiceResponse::Status::kError);
    EXPECT_EQ(response.errorCode, "service.bad_loop");
    EXPECT_EQ(server.stats().errors, 2u);
}

TEST(ModelRegistryTest, RegistersAndLooksUpMachines)
{
    service::ModelRegistry registry;
    const auto names = registry.names();
    EXPECT_EQ(names.size(), 4u);
    EXPECT_NE(registry.lookup("cydra5"), nullptr);
    EXPECT_EQ(registry.lookup("nope"), nullptr);

    // Registering by text round-trips through machine_io: the canonical
    // text the registry stores is the printMachine of what it parsed.
    const auto cydra = registry.lookup("cydra5");
    registry.registerText("copy", cydra->canonicalText);
    const auto copy = registry.lookup("copy");
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->canonicalText, cydra->canonicalText);

    EXPECT_THROW(registry.registerText("bad", "resource r0\n"),
                 support::Error);
}

TEST(OptionsCodecTest, CanonicalTextRoundTripsAndNormalizes)
{
    // Round trip: parse(canonical) reproduces the canonical bytes.
    const core::PipelinerOptions defaults;
    const std::string canonical = service::canonicalOptionsText(defaults);
    EXPECT_EQ(service::canonicalOptionsText(
                  service::parseOptionsText(canonical)),
              canonical);

    // Semantic knobs change the key...
    EXPECT_NE(service::canonicalOptionsText(
                  core::PipelinerOptions{}.withBudgetRatio(6.0)),
              canonical);
    EXPECT_NE(service::canonicalOptionsText(
                  core::PipelinerOptions{}.withScheduler(
                      sched::SchedulerStrategy::kSlack)),
              canonical);
    EXPECT_NE(service::canonicalOptionsText(
                  core::PipelinerOptions{}.withRandomSeed(99)),
              canonical);

    // ...while telemetry sinks never reach the key.
    support::TelemetryRecorder recorder;
    EXPECT_EQ(service::canonicalOptionsText(
                  core::PipelinerOptions{}.withTelemetry(&recorder)),
              canonical);

    EXPECT_THROW(service::parseOptionsText("nonsense 1\n"),
                 support::Error);
}

TEST(OptionsCodecTest, RejectsVerifySimTripsAboveTheBound)
{
    // Sim verification costs time and memory linear in each trip, so an
    // untrusted cache file must not pick an unbounded one.
    const std::string bound = std::to_string(service::kMaxVerifySimTrip);
    EXPECT_EQ(service::parseOptionsText("verify_sim_trips 0," + bound +
                                        "\n")
                  .verifySimTrips,
              (std::vector<int>{0, service::kMaxVerifySimTrip}));
    for (const std::string& trips : std::vector<std::string>{
             std::to_string(service::kMaxVerifySimTrip + 1), "100000",
             "0,20000000", "2147483647"}) {
        EXPECT_THROW(
            service::parseOptionsText("verify_sim_trips " + trips + "\n"),
            support::Error)
            << trips;
    }
}

} // namespace
