#ifndef IMS_SERVICE_SCHEDULE_SERVICE_HPP
#define IMS_SERVICE_SCHEDULE_SERVICE_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeliner.hpp"
#include "ir/loop.hpp"
#include "service/model_registry.hpp"
#include "service/schedule_cache.hpp"

namespace ims::service {

/** Options for a ScheduleService instance. */
struct ServiceOptions
{
    /** Pipeline options every request is scheduled and keyed under. A
     *  loaded cache file's entries keep the options they were saved
     *  with. */
    core::PipelinerOptions pipeline;
    /** Cache capacity. */
    CacheOptions cache;
    /**
     * Worker threads for the request queue; <= 0 means hardware
     * concurrency, resolved through support::resolveWorkerThreads — the
     * same >= 1 clamp BatchPipeliner uses, so a platform reporting 0
     * hardware threads still gets a working pool.
     */
    int threads = 0;
    /**
     * Admission control: requests beyond this many *queued* (not yet
     * executing) submissions are rejected with a structured
     * "service.overloaded" response instead of growing the queue without
     * bound.
     */
    std::size_t maxQueuedRequests = 1024;

    ServiceOptions&
    withPipelineOptions(core::PipelinerOptions o)
    {
        pipeline = std::move(o);
        return *this;
    }

    ServiceOptions&
    withCache(CacheOptions c)
    {
        cache = c;
        return *this;
    }

    ServiceOptions&
    withThreads(int count)
    {
        threads = count;
        return *this;
    }

    ServiceOptions&
    withMaxQueuedRequests(std::size_t count)
    {
        maxQueuedRequests = count;
        return *this;
    }
};

/** One schedule request, as text — the service's wire-level unit. */
struct ServiceRequest
{
    /**
     * Fairness key: requests are drained round-robin *across* clients,
     * so one client flooding the queue cannot starve the others. Empty
     * means the shared anonymous lane.
     */
    std::string client;
    /** Registry name of the machine to schedule for. */
    std::string machine = "cydra5";
    /** Loop body in the textual mini-IR format (ir/parser). */
    std::string loopText;
};

/** What the service answers. */
struct ServiceResponse
{
    enum class Status
    {
        /** Processed; `result` is set (it may still carry scheduling
         *  diagnostics — check result->ok()). */
        kOk,
        /** Refused by admission control before any work was done. */
        kRejected,
        /** Malformed request (unknown machine, unparsable loop, ...). */
        kError,
    };

    Status status = Status::kError;
    /** True iff the result came out of the content-addressed cache. */
    bool cacheHit = false;
    /** Structured code when status != kOk ("service.overloaded", ...). */
    std::string errorCode;
    std::string errorMessage;
    /** Parsed loop name (set once parsing succeeded). */
    std::string loopName;
    /** The content-addressed cache key digest (0 until keyed). */
    std::uint64_t key = 0;
    /** The memoized or freshly computed result (kOk only). Shared and
     *  immutable: a hit hands every requester the same object. */
    std::shared_ptr<const core::PipelineResult> result;
    /** The canonical parsed loop (kOk only; for reports/fingerprints). */
    std::shared_ptr<const ir::Loop> loop;
    /** The machine the request was scheduled for (kOk only). */
    std::shared_ptr<const RegisteredModel> model;
    /** Time spent waiting in the admission queue. */
    double queueSeconds = 0.0;
    /** Handling time (parse + hash + lookup [+ pipeline on miss]). */
    double serviceSeconds = 0.0;

    bool ok() const { return status == Status::kOk; }
};

/** Aggregate service observability. */
struct ServiceStats
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
    std::size_t queued = 0;
    int workers = 0;
    CacheStats cache;

    /** One-line JSON with svc_* keys (schema ims.service_stats.v1). */
    std::string toJson() const;
};

/**
 * Scheduling-as-a-service: a long-running request layer over the
 * pipeline with
 *
 *  - a machine-model registry (built-ins pre-registered; more arrive as
 *    machine_io text),
 *  - a content-addressed ScheduleCache keyed on FNV-1a of (canonical
 *    loop text, canonical machine text, normalized options text), so
 *    identical loops across requests hit a memoized PipelineResult,
 *  - a bounded async request queue drained by a persistent worker pool
 *    (the same resolveWorkerThreads/parallel substrate as
 *    BatchPipeliner) with per-client round-robin fairness and
 *    "service.overloaded" admission rejections,
 *  - cache persistence: saveCacheText() serializes every memoized
 *    request via the canonical round-trip formats; loadCacheText()
 *    re-materializes them deterministically on restart.
 *
 * Thread-safety: every public method may be called concurrently.
 * Determinism: a cache hit returns a result bit-identical (see
 * fingerprintResult) to the cold run that populated it, regardless of
 * worker count, because the pipeline itself is deterministic and the
 * cache stores immutable results.
 */
class ScheduleService
{
  public:
    explicit ScheduleService(ServiceOptions options = {});
    /** Drains queued requests, then joins the workers. */
    ~ScheduleService();

    ScheduleService(const ScheduleService&) = delete;
    ScheduleService& operator=(const ScheduleService&) = delete;

    ModelRegistry& models() { return registry_; }
    const ServiceOptions& options() const { return options_; }
    /** Resolved worker-pool size (>= 1). */
    int workerThreads() const { return workerThreads_; }

    /**
     * Handle a request synchronously on the calling thread, bypassing
     * the queue (no admission control) but sharing the cache. This is
     * the workers' own execution path.
     */
    ServiceResponse scheduleNow(const ServiceRequest& request);

    /**
     * Enqueue a request; `done` runs exactly once on a worker thread
     * (or inline for admission rejections). Per-client round-robin
     * ordering: within one client requests complete in submission
     * order. When `done` runs, stats() already counts the request as
     * completed.
     */
    void submitAsync(ServiceRequest request,
                     std::function<void(const ServiceResponse&)> done);

    /** Block until the queue is empty, all workers are idle and every
     *  `done` callback has returned. */
    void drain();

    ServiceStats stats() const;

    /** Serialize the cache's request set (see ScheduleCache::saveText). */
    std::string saveCacheText() const { return cache_.saveText(); }

    /**
     * Re-materialize a saveText() document: each entry's canonical
     * (loop, machine, options) is re-pipelined once, cold, and the
     * result inserted under its original key — determinism makes the
     * loaded entries bit-identical to the ones that were saved. Returns
     * the number of entries loaded. @throws support::Error on malformed
     * or non-canonical input.
     */
    std::size_t loadCacheText(const std::string& text);

  private:
    struct Pending
    {
        ServiceRequest request;
        std::function<void(const ServiceResponse&)> done;
        std::chrono::steady_clock::time_point enqueued;
    };

    void workerLoop();
    ServiceResponse handle(const ServiceRequest& request,
                           double queue_seconds);

    ServiceOptions options_;
    int workerThreads_ = 1;
    ModelRegistry registry_;
    ScheduleCache cache_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable idleCv_;
    /** Per-client FIFO lanes; drained round-robin via rotation_. */
    std::map<std::string, std::deque<Pending>> lanes_;
    /** Clients with non-empty lanes, in first-enqueue order. */
    std::vector<std::string> rotation_;
    std::size_t rotationCursor_ = 0;
    std::size_t totalQueued_ = 0;
    int activeWorkers_ = 0;
    bool stopping_ = false;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t errors_ = 0;
    std::vector<std::thread> workers_;
};

} // namespace ims::service

#endif // IMS_SERVICE_SCHEDULE_SERVICE_HPP
