#ifndef IMS_SUPPORT_PARALLEL_HPP
#define IMS_SUPPORT_PARALLEL_HPP

#include <algorithm>
#include <atomic>
#include <cstddef>
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
 * one at a time by an atomic claim counter, so one slow item never holds
 * up the rest: every other worker keeps claiming while it runs. *Which*
 * worker runs an index is racy, but results are deterministic whenever
 * each body invocation reads only shared immutable state and writes only
 * its own pre-sized slot — the contract both the batch pipeliner and the
 * fuzz campaign driver follow (verified under -fsanitize=thread,
 * scripts/check_tsan.sh).
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

} // namespace ims::support

#endif // IMS_SUPPORT_PARALLEL_HPP
