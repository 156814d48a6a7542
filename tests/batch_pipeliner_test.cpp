#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "core/batch_pipeliner.hpp"
#include "ir/parser.hpp"
#include "machine/cydra5.hpp"
#include "support/parallel.hpp"
#include "workloads/corpus.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;

std::vector<ir::Loop>
libraryLoops()
{
    std::vector<ir::Loop> loops;
    for (const auto& w : workloads::kernelLibrary())
        loops.push_back(w.loop);
    return loops;
}

TEST(BatchPipelinerTest, PipelinesTheWholeKernelLibrary)
{
    const auto loops = libraryLoops();
    core::BatchPipeliner batch(machine::cydra5());
    const auto result = batch.run(loops);

    ASSERT_EQ(result.items.size(), loops.size());
    EXPECT_EQ(result.failures(), 0u);
    for (std::size_t i = 0; i < loops.size(); ++i) {
        EXPECT_EQ(result.items[i].name, loops[i].name()) << i;
        ASSERT_TRUE(result.items[i].result.ok()) << loops[i].name();
        EXPECT_GE(result.items[i].result.telemetry.ii,
                  result.items[i].result.telemetry.mii);
    }
}

TEST(BatchPipelinerTest, DeterministicAcrossThreadCounts)
{
    const auto loops = libraryLoops();
    const auto machine = machine::cydra5();

    const auto baseline =
        core::BatchPipeliner(machine, core::BatchOptions{}.withThreads(1))
            .run(loops);

    for (const int threads : {2, 3, 8}) {
        const auto parallel =
            core::BatchPipeliner(machine,
                                 core::BatchOptions{}.withThreads(threads))
                .run(loops);
        ASSERT_EQ(parallel.items.size(), baseline.items.size());
        for (std::size_t i = 0; i < baseline.items.size(); ++i) {
            const auto& a = baseline.items[i];
            const auto& b = parallel.items[i];
            EXPECT_EQ(a.name, b.name);
            ASSERT_TRUE(a.result.ok());
            ASSERT_TRUE(b.result.ok()) << a.name << " @" << threads;
            const auto& sa = a.result.artifacts->outcome.schedule;
            const auto& sb = b.result.artifacts->outcome.schedule;
            // Bitwise-identical schedules for any pool size.
            EXPECT_EQ(sa.ii, sb.ii) << a.name;
            EXPECT_EQ(sa.times, sb.times) << a.name;
            EXPECT_EQ(sa.alternatives, sb.alternatives) << a.name;
            EXPECT_EQ(sa.scheduleLength, sb.scheduleLength) << a.name;
            EXPECT_EQ(a.result.artifacts->registers.rotatingRegisters,
                      b.result.artifacts->registers.rotatingRegisters)
                << a.name;
        }
    }
}

TEST(BatchPipelinerTest, SameLoopOneHundredTimesIsByteIdentical)
{
    // Pool scheduling must never leak into the scheduler: 100 copies of
    // one recurrence-bearing loop, run at several pool sizes, must all
    // yield the same ScheduleResult in every field (including the step
    // and unschedule counters, which would expose any hidden
    // order-dependent state such as a reused priority workspace).
    const auto loop = workloads::kernelByName("tridiag").loop;
    const std::vector<ir::Loop> loops(100, loop);
    const auto machine = machine::cydra5();

    std::vector<sched::ScheduleResult> reference;
    for (const int threads : {1, 4, 8}) {
        const auto result =
            core::BatchPipeliner(machine,
                                 core::BatchOptions{}.withThreads(threads))
                .run(loops);
        ASSERT_EQ(result.items.size(), loops.size());
        std::vector<sched::ScheduleResult> schedules;
        for (const auto& item : result.items) {
            ASSERT_TRUE(item.result.ok()) << "@" << threads;
            schedules.push_back(item.result.artifacts->outcome.schedule);
        }
        if (reference.empty()) {
            reference = std::move(schedules);
            continue;
        }
        for (std::size_t i = 0; i < reference.size(); ++i) {
            const auto& a = reference[i];
            const auto& b = schedules[i];
            EXPECT_EQ(a.ii, b.ii) << i << " @" << threads;
            EXPECT_EQ(a.times, b.times) << i << " @" << threads;
            EXPECT_EQ(a.alternatives, b.alternatives)
                << i << " @" << threads;
            EXPECT_EQ(a.scheduleLength, b.scheduleLength)
                << i << " @" << threads;
            EXPECT_EQ(a.stepsUsed, b.stepsUsed) << i << " @" << threads;
            EXPECT_EQ(a.unschedules, b.unschedules)
                << i << " @" << threads;
        }
    }
    // Copies within one run are identical too.
    for (std::size_t i = 1; i < reference.size(); ++i) {
        EXPECT_EQ(reference[i].times, reference[0].times) << i;
        EXPECT_EQ(reference[i].unschedules, reference[0].unschedules) << i;
    }
}

TEST(BatchPipelinerTest, ParallelForRunsEveryIndexExactlyOnce)
{
    constexpr std::size_t kCount = 257; // not a multiple of the pool size
    std::vector<std::atomic<int>> runs(kCount);
    support::parallelFor(kCount, 4,
                         [&](std::size_t index) { ++runs[index]; });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(BatchPipelinerTest, ParallelForRunsPastABlockedItem)
{
    // Item 0 blocks until every other item has completed, so the pool can
    // only terminate if the other worker claims items 1-3 while item 0's
    // worker waits. With static slot assignment (worker 0 owning items 0
    // and 1) this test would deadlock rather than fail.
    constexpr std::size_t kCount = 4;
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t done = 0;
    support::parallelFor(kCount, 2, [&](std::size_t index) {
        std::unique_lock<std::mutex> lock(mutex);
        if (index == 0) {
            done_cv.wait(lock, [&] { return done == kCount - 1; });
        } else {
            ++done;
            done_cv.notify_all();
        }
    });
    EXPECT_EQ(done, kCount - 1);
}

TEST(BatchPipelinerTest, WorkStealsIsAlwaysZero)
{
    // Loops are claimed one at a time, so no work ever migrates; the
    // field stays only for existing readers.
    const auto loops = libraryLoops();
    const auto machine = machine::cydra5();
    for (const int threads : {1, 8}) {
        const auto result = core::BatchPipeliner(
                                machine,
                                core::BatchOptions{}.withThreads(threads))
                                .run(loops);
        EXPECT_EQ(result.failures(), 0u) << threads;
        EXPECT_EQ(result.workSteals, 0u) << threads;
    }
}

TEST(BatchPipelinerTest, OneBadLoopDoesNotSinkTheBatch)
{
    const auto library = workloads::kernelLibrary();
    std::vector<ir::Loop> loops;
    for (int i = 0; i < 10; ++i)
        loops.push_back(library[i].loop);
    // Sabotage loop 4: b and c feed each other in the same iteration, a
    // cycle with distance 0 that no schedule can satisfy.
    loops[4] = ir::parseLoop("loop zero_distance_cycle\n"
                             "recurrence c\n"
                             "livein a\n"
                             "b = add c, a\n"
                             "c = add b, a\n");

    core::BatchPipeliner batch(machine::cydra5(),
                               core::BatchOptions{}.withThreads(4));
    const auto result = batch.run(loops);

    ASSERT_EQ(result.items.size(), 10u);
    EXPECT_EQ(result.failures(), 1u);
    EXPECT_EQ(result.successes(), 9u);
    EXPECT_FALSE(result.items[4].result.ok());
    ASSERT_FALSE(result.items[4].result.diagnostics.empty());
    EXPECT_EQ(result.items[4].result.diagnostics[0].severity,
              core::Diagnostic::Severity::kError);
    EXPECT_EQ(result.items[4].name, loops[4].name());
    for (const std::size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 7u, 8u, 9u})
        EXPECT_TRUE(result.items[i].result.ok()) << i;
}

TEST(BatchPipelinerTest, SummaryTableAggregatesDistributions)
{
    const auto loops = libraryLoops();
    core::BatchPipeliner batch(machine::cydra5(),
                               core::BatchOptions{}.withThreads(2));
    const auto result = batch.run(loops);

    const std::string summary = result.summaryTable();
    EXPECT_NE(summary.find("II / MII"), std::string::npos);
    EXPECT_NE(summary.find("candidate IIs attempted"), std::string::npos);
    EXPECT_NE(summary.find("wall ms per loop"), std::string::npos);
    EXPECT_NE(summary.find(std::to_string(loops.size())),
              std::string::npos);
}

TEST(BatchPipelinerTest, TelemetryJsonIsAParsableArray)
{
    std::vector<ir::Loop> loops;
    loops.push_back(workloads::kernelByName("daxpy").loop);
    loops.push_back(workloads::kernelByName("tridiag").loop);
    core::BatchPipeliner batch(machine::cydra5());
    const auto result = batch.run(loops);

    // The per-loop records, in input order, joined into one array.
    ASSERT_EQ(result.items.size(), 2u);
    EXPECT_EQ(result.telemetryJson(),
              "[" + result.items[0].result.telemetry.toJson() + "," +
                  result.items[1].result.telemetry.toJson() + "]");
}

TEST(BatchPipelinerTest, DefaultThreadCountRuns)
{
    std::vector<ir::Loop> loops;
    loops.push_back(workloads::kernelByName("daxpy").loop);
    core::BatchPipeliner batch(machine::cydra5());
    EXPECT_EQ(batch.options().threads, 0);
    const auto result = batch.run(loops);
    EXPECT_EQ(result.failures(), 0u);
    EXPECT_GE(result.threadsUsed, 1);
    EXPECT_GT(result.wallSeconds, 0.0);
}

TEST(BatchPipelinerTest, EmptyBatchIsFine)
{
    core::BatchPipeliner batch(machine::cydra5());
    const auto result = batch.run(std::vector<ir::Loop>{});
    EXPECT_TRUE(result.items.empty());
    EXPECT_EQ(result.failures(), 0u);
    EXPECT_NE(result.summaryTable().find("0/0"), std::string::npos);
}

TEST(BatchPipelinerTest, MatchesSingleLoopPipeliner)
{
    // The batch driver must produce exactly what one-at-a-time calls do.
    const auto loops = libraryLoops();
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner single(machine);
    core::BatchPipeliner batch(machine,
                               core::BatchOptions{}.withThreads(3));
    const auto result = batch.run(loops);
    ASSERT_EQ(result.items.size(), loops.size());
    for (std::size_t i = 0; i < loops.size(); ++i) {
        const auto one = single.pipeline(core::PipelineRequest(loops[i]));
        ASSERT_TRUE(one.ok());
        ASSERT_TRUE(result.items[i].result.ok());
        EXPECT_EQ(one.artifacts->outcome.schedule.times,
                  result.items[i].result.artifacts->outcome.schedule.times)
            << loops[i].name();
    }
}

} // namespace
