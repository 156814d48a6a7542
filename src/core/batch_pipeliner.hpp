#ifndef IMS_CORE_BATCH_PIPELINER_HPP
#define IMS_CORE_BATCH_PIPELINER_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeliner.hpp"

namespace ims::core {

/** Options for the batch driver. */
struct BatchOptions
{
    /** Options applied to every loop. */
    PipelinerOptions pipeline;
    /**
     * Worker threads; 0 means std::thread::hardware_concurrency(). The
     * results are bitwise identical for any thread count — workers only
     * share the immutable MachineModel and write disjoint result slots.
     */
    int threads = 0;

    BatchOptions&
    withThreads(int count)
    {
        threads = count;
        return *this;
    }

    BatchOptions&
    withPipelineOptions(PipelinerOptions options)
    {
        pipeline = std::move(options);
        return *this;
    }
};

/** Outcome for one loop of a batch, in input order. */
struct BatchItem
{
    /** Loop name (available even when the run failed). */
    std::string name;
    PipelineResult result;
};

/** Everything a batch run produces. */
struct BatchResult
{
    /** One entry per input loop, in input order. */
    std::vector<BatchItem> items;
    /** Wall time of the whole batch. */
    double wallSeconds = 0.0;
    /** Worker threads actually used. */
    int threadsUsed = 1;
    /** Always 0: loops are claimed one at a time, so no work migrates.
     *  Kept only for existing readers of the field. */
    std::uint64_t workSteals = 0;

    std::size_t successes() const;
    std::size_t failures() const;

    /**
     * Aggregate distribution report over the successful loops in the
     * shape of the paper's Table 3 (II/MII dilation, attempts, schedule
     * length vs lower bound, per-loop wall time), rendered as text.
     */
    std::string summaryTable() const;

    /** JSON array of the per-loop telemetry records. */
    std::string telemetryJson() const;
};

/**
 * Thread-pooled driver pipelining N independent loops concurrently over
 * one shared immutable MachineModel. Loops never interact, so the batch
 * is embarrassingly parallel; per-loop failures are isolated as
 * diagnostics on the corresponding item (one malformed loop cannot take
 * down the batch), and result ordering is deterministic regardless of
 * thread count or completion order. Work is distributed by
 * support::parallelFor, which hands out one loop at a time, so one
 * pathologically slow loop cannot hold up the rest of the batch. Each
 * loop runs on one thread.
 */
class BatchPipeliner
{
  public:
    explicit BatchPipeliner(machine::MachineModel machine,
                            BatchOptions options = {});

    const machine::MachineModel& machine() const
    {
        return pipeliner_.machine();
    }
    const BatchOptions& options() const { return options_; }

    /**
     * Pipeline every loop; results in input order. A sink in the
     * pipeline options is invoked from worker threads and must be
     * thread-safe.
     */
    BatchResult run(const std::vector<ir::Loop>& loops) const;

  private:
    SoftwarePipeliner pipeliner_;
    BatchOptions options_;
};

} // namespace ims::core

#endif // IMS_CORE_BATCH_PIPELINER_HPP
