#ifndef IMS_SUPPORT_CANCELLATION_HPP
#define IMS_SUPPORT_CANCELLATION_HPP

#include <atomic>
#include <cstdint>

namespace ims::support {

/**
 * Cooperative cancellation for keyed tasks.
 *
 * The token holds a monotonically decreasing *ceiling*; a task whose key
 * lies strictly above the ceiling is cancelled. The schedulers'
 * trySchedule take one (keyed by the candidate II) and poll it once per
 * scheduling step, returning AttemptStatus::kCancelled once it fires:
 *
 *  - every task has an integer key (its candidate II);
 *  - `lowerCeiling(k)` cancels every task with a key above `k`;
 *    `cancelAll()` cancels every task (e.g. a request deadline);
 *  - long-running tasks poll `cancelled(my_key)` at their natural
 *    iteration boundary and abandon work when it turns true.
 *
 * Because the ceiling only ever decreases, `cancelled(k)` is monotonic in
 * time for a fixed `k`: once cancelled, always cancelled. All operations
 * are lock-free; `cancelled` is a single relaxed atomic load, cheap
 * enough for a per-iteration check in a scheduler's budget loop.
 */
class CancellationToken
{
  public:
    /** Lower the ceiling to `key` (no-op if already at or below it). */
    void
    lowerCeiling(std::int64_t key) noexcept
    {
        std::int64_t current = ceiling_.load(std::memory_order_relaxed);
        while (key < current &&
               !ceiling_.compare_exchange_weak(current, key,
                                               std::memory_order_relaxed)) {
        }
    }

    /** Cancel every task regardless of key. */
    void
    cancelAll() noexcept
    {
        lowerCeiling(INT64_MIN);
    }

    /** True when the task with `key` should abandon its work. */
    bool
    cancelled(std::int64_t key) const noexcept
    {
        return key > ceiling_.load(std::memory_order_relaxed);
    }

    /** Current ceiling (INT64_MAX until the first lowerCeiling). */
    std::int64_t
    ceiling() const noexcept
    {
        return ceiling_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> ceiling_{INT64_MAX};
};

} // namespace ims::support

#endif // IMS_SUPPORT_CANCELLATION_HPP
