#ifndef IMS_SUPPORT_PARALLEL_HPP
#define IMS_SUPPORT_PARALLEL_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ims::support {

/**
 * Resolve a worker-pool size with no per-batch bound: <= 0 means "use the
 * hardware concurrency", and the result is always >= 1 —
 * std::thread::hardware_concurrency() is allowed to return 0 ("not
 * computable") and a zero-thread pool would never make progress. This is
 * the single clamp shared by BatchPipeliner, the fuzz campaign and the
 * schedule service's persistent worker queue.
 */
inline int
resolveWorkerThreads(int requested)
{
    if (requested > 0)
        return requested;
    return std::max(1,
                    static_cast<int>(std::thread::hardware_concurrency()));
}

/**
 * Resolve a thread-count request for a fixed batch: resolveWorkerThreads
 * further clamped to [1, work_items] so small workloads never spawn idle
 * threads.
 */
inline int
resolveThreads(int requested, std::size_t work_items)
{
    const int max_useful = std::max(1, static_cast<int>(work_items));
    return std::min(resolveWorkerThreads(requested), max_useful);
}

/**
 * Run `body(index)` for every index in [0, count) on up to `threads`
 * workers (already resolved via resolveThreads). Indices are handed out
 * by an atomic claim counter, so *which* worker runs an index is racy,
 * but results are deterministic whenever each body invocation reads only
 * shared immutable state and writes only its own pre-sized slot — the
 * contract both the batch pipeliner and the fuzz campaign driver follow
 * (verified under -fsanitize=thread, scripts/check_tsan.sh).
 *
 * `body` must not throw: workers run with no exception barrier, so an
 * escaping exception terminates the process. Catch inside the body and
 * record the failure in the slot instead.
 */
template <typename Body>
void
parallelFor(std::size_t count, int threads, const Body& body)
{
    if (threads <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&body, &next, count] {
            while (true) {
                const std::size_t index =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (index >= count)
                    return;
                body(index);
            }
        });
    }
    for (auto& worker : workers)
        worker.join();
}

/** Observability for workStealingFor (how often work migrated). */
struct WorkStealingStats
{
    /** Number of successful steal operations (range migrations). */
    std::uint64_t steals = 0;
};

/**
 * Run `body(index)` for every index in [0, count) on up to `threads`
 * workers (already resolved via resolveThreads), with work stealing:
 * each worker starts with a contiguous slice of the index range and,
 * when its own slice drains, steals the upper half of the largest-
 * remaining victim's slice. Compared to parallelFor's single shared
 * claim counter this keeps each worker walking consecutive indices
 * (cache- and NUMA-friendlier result writes) while still rebalancing
 * when per-item costs are skewed — the BatchPipeliner's situation,
 * where one 800-op loop can cost 50x a small one.
 *
 * Slices are guarded by one mutex per worker; a steal holds only the
 * victim's lock while detaching the range and only the thief's lock
 * while attaching it, so no two locks are ever held at once (no
 * lock-order deadlock) and every index runs exactly once. The mutex per
 * pop is deliberate: batch items cost milliseconds, so the lock is
 * noise, and the simple protocol is trivially ThreadSanitizer-clean
 * (scripts/check_tsan.sh runs the batch tests under TSan).
 *
 * Determinism contract is parallelFor's: body(i) must read only shared
 * immutable state and write only slot i; then results are bitwise
 * identical for every thread count. A worker that finds every slice
 * momentarily empty may exit while a just-detached range is still being
 * attached by its thief — work is never lost, the thief runs it.
 *
 * `body` must not throw. `stats`, when non-null, receives the number of
 * successful steals (not deterministic — it depends on timing).
 */
template <typename Body>
void
workStealingFor(std::size_t count, int threads, const Body& body,
                WorkStealingStats* stats = nullptr)
{
    if (threads <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    struct alignas(64) Slice
    {
        std::mutex mutex;
        std::size_t next = 0;
        std::size_t end = 0;
    };
    const int workers = std::min<std::size_t>(threads, count);
    std::unique_ptr<Slice[]> slices(new Slice[workers]);
    const std::size_t base = count / workers;
    const std::size_t extra = count % workers;
    std::size_t cursor = 0;
    for (int w = 0; w < workers; ++w) {
        slices[w].next = cursor;
        cursor += base + (static_cast<std::size_t>(w) < extra ? 1 : 0);
        slices[w].end = cursor;
    }

    std::atomic<std::uint64_t> steals{0};
    const auto worker_body = [&](int w) {
        constexpr std::size_t kNone = static_cast<std::size_t>(-1);
        Slice& own = slices[w];
        while (true) {
            // Pop the next index of the worker's own slice; run the body
            // outside the lock so thieves can carve the slice meanwhile.
            std::size_t index = kNone;
            {
                std::lock_guard<std::mutex> lock(own.mutex);
                if (own.next < own.end)
                    index = own.next++;
            }
            if (index != kNone) {
                body(index);
                continue;
            }
            // Own slice drained: steal the upper half of a victim's
            // remainder. Scanning from w+1 spreads thieves across
            // victims instead of mobbing worker 0.
            std::size_t stolen_begin = 0;
            std::size_t stolen_end = 0;
            for (int offset = 1; offset < workers; ++offset) {
                Slice& victim = slices[(w + offset) % workers];
                std::lock_guard<std::mutex> lock(victim.mutex);
                const std::size_t remaining = victim.end - victim.next;
                if (remaining == 0)
                    continue;
                const std::size_t take = (remaining + 1) / 2;
                stolen_begin = victim.end - take;
                stolen_end = victim.end;
                victim.end = stolen_begin;
                break;
            }
            if (stolen_begin == stolen_end)
                return; // every slice empty: done
            steals.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(own.mutex);
            own.next = stolen_begin;
            own.end = stolen_end;
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w)
        pool.emplace_back(worker_body, w);
    for (auto& thread : pool)
        thread.join();
    if (stats != nullptr)
        stats->steals = steals.load(std::memory_order_relaxed);
}

} // namespace ims::support

#endif // IMS_SUPPORT_PARALLEL_HPP
