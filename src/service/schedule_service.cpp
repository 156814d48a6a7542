#include "service/schedule_service.hpp"

#include <chrono>
#include <sstream>
#include <utility>

#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "machine/machine_io.hpp"
#include "service/options_codec.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace ims::service {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

std::string
ServiceStats::toJson() const
{
    std::ostringstream out;
    out << "{\"schema\":\"ims.service_stats.v1\""
        << ",\"svc_submitted\":" << submitted
        << ",\"svc_completed\":" << completed
        << ",\"svc_rejected\":" << rejected
        << ",\"svc_errors\":" << errors
        << ",\"svc_queued\":" << queued
        << ",\"svc_workers\":" << workers
        << ",\"svc_cache_hits\":" << cache.hits
        << ",\"svc_cache_misses\":" << cache.misses
        << ",\"svc_cache_insertions\":" << cache.insertions
        << ",\"svc_cache_evictions\":" << cache.evictions
        << ",\"svc_cache_hash_collisions\":" << cache.hashCollisions
        << ",\"svc_cache_entries\":" << cache.entries << "}";
    return out.str();
}

ScheduleService::ScheduleService(ServiceOptions options)
    : options_(std::move(options)),
      workerThreads_(support::resolveWorkerThreads(options_.threads)),
      cache_(options_.cache)
{
    workers_.reserve(static_cast<std::size_t>(workerThreads_));
    for (int i = 0; i < workerThreads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ScheduleService::~ScheduleService()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (auto& worker : workers_)
        worker.join();
}

ServiceResponse
ScheduleService::handle(const ServiceRequest& request, double queue_seconds)
{
    const auto started = Clock::now();
    ServiceResponse response;
    response.queueSeconds = queue_seconds;

    const auto fail = [&](std::string code, std::string message) {
        response.status = ServiceResponse::Status::kError;
        response.errorCode = std::move(code);
        response.errorMessage = std::move(message);
        response.serviceSeconds = secondsSince(started);
        return response;
    };

    const auto model = registry_.lookup(request.machine);
    if (!model)
        return fail("service.unknown_machine",
                    "no machine registered under '" + request.machine + "'");
    response.model = model;

    std::shared_ptr<const ir::Loop> loop;
    std::string canonical_loop;
    try {
        loop = std::make_shared<const ir::Loop>(
            ir::parseLoop(request.loopText));
        canonical_loop = ir::printLoop(*loop);
    } catch (const support::Error& error) {
        return fail("service.bad_loop", error.what());
    }
    response.loop = loop;
    response.loopName = loop->name();

    const CacheKey key =
        CacheKey::make(std::move(canonical_loop), model->canonicalText,
                       canonicalOptionsText(options_.pipeline));
    response.key = key.hash;

    if (auto cached = cache_.lookup(key)) {
        response.status = ServiceResponse::Status::kOk;
        response.cacheHit = true;
        response.result = std::move(cached);
        response.serviceSeconds = secondsSince(started);
        return response;
    }

    try {
        const core::SoftwarePipeliner pipeliner(model->model,
                                                options_.pipeline);
        core::PipelineResult result =
            pipeliner.pipeline(core::PipelineRequest(*loop));
        response.result = cache_.insert(key, std::move(result));
    } catch (const support::Error& error) {
        return fail("service.internal", error.what());
    }
    response.status = ServiceResponse::Status::kOk;
    response.serviceSeconds = secondsSince(started);
    return response;
}

ServiceResponse
ScheduleService::scheduleNow(const ServiceRequest& request)
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++submitted_;
    }
    ServiceResponse response = handle(request, 0.0);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++completed_;
        if (response.status == ServiceResponse::Status::kError)
            ++errors_;
    }
    return response;
}

void
ScheduleService::submitAsync(ServiceRequest request,
                             std::function<void(const ServiceResponse&)> done)
{
    bool rejected = false;
    bool stopping = false;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++submitted_;
        if (stopping_ || totalQueued_ >= options_.maxQueuedRequests) {
            ++rejected_;
            rejected = true;
            stopping = stopping_;
        } else {
            auto& lane = lanes_[request.client];
            if (lane.empty())
                rotation_.push_back(request.client);
            lane.push_back(Pending{std::move(request), std::move(done),
                                   Clock::now()});
            ++totalQueued_;
        }
    }
    if (rejected) {
        // Structured rejection, delivered inline: admission control must
        // not block and must not consume a worker.
        ServiceResponse response;
        response.status = ServiceResponse::Status::kRejected;
        response.errorCode =
            stopping ? "service.stopping" : "service.overloaded";
        response.errorMessage =
            "queue full (" + std::to_string(options_.maxQueuedRequests) +
            " requests pending); retry later";
        if (done)
            done(response);
        return;
    }
    workCv_.notify_one();
}

void
ScheduleService::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        workCv_.wait(lock, [this] { return stopping_ || totalQueued_ > 0; });
        if (totalQueued_ == 0) {
            if (stopping_)
                return;
            continue;
        }

        // Round-robin across client lanes: take the head of the cursor's
        // lane, then advance so the next dequeue serves the next client.
        rotationCursor_ %= rotation_.size();
        const std::string client = rotation_[rotationCursor_];
        auto lane_it = lanes_.find(client);
        Pending pending = std::move(lane_it->second.front());
        lane_it->second.pop_front();
        --totalQueued_;
        if (lane_it->second.empty()) {
            lanes_.erase(lane_it);
            // Erasing at the cursor makes it point at the next client.
            rotation_.erase(rotation_.begin() +
                            static_cast<std::ptrdiff_t>(rotationCursor_));
        } else {
            ++rotationCursor_;
        }
        ++activeWorkers_;
        lock.unlock();

        const ServiceResponse response =
            handle(pending.request, secondsSince(pending.enqueued));
        // Counted before `done` runs, so a stats() call that the answer
        // precedes sees it; still active until `done` returns, so
        // drain() waits for the callback too.
        lock.lock();
        ++completed_;
        if (response.status == ServiceResponse::Status::kError)
            ++errors_;
        lock.unlock();
        if (pending.done)
            pending.done(response);

        lock.lock();
        --activeWorkers_;
        if (totalQueued_ == 0 && activeWorkers_ == 0)
            idleCv_.notify_all();
    }
}

void
ScheduleService::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock,
                 [this] { return totalQueued_ == 0 && activeWorkers_ == 0; });
}

ServiceStats
ScheduleService::stats() const
{
    ServiceStats stats;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stats.submitted = submitted_;
        stats.completed = completed_;
        stats.rejected = rejected_;
        stats.errors = errors_;
        stats.queued = totalQueued_;
    }
    stats.workers = workerThreads_;
    stats.cache = cache_.stats();
    return stats;
}

std::size_t
ScheduleService::loadCacheText(const std::string& text)
{
    const std::vector<CacheKey> keys = ScheduleCache::parseSaveText(text);
    std::size_t loaded = 0;
    for (const CacheKey& saved : keys) {
        if (cache_.lookup(saved))
            continue; // already materialized (idempotent reload)

        // Re-parse each component and require it to round-trip back to
        // the saved bytes: a save file is canonical by construction, so
        // any mismatch means the file was edited or corrupted and the
        // entry would be keyed inconsistently.
        const ir::Loop loop = ir::parseLoop(saved.loopText);
        support::check(ir::printLoop(loop) == saved.loopText, [&] {
            return "cache file: non-canonical loop text for entry " +
                   loop.name();
        });
        const machine::MachineModel machine =
            machine::parseMachine(saved.machineText);
        support::check(machine::printMachine(machine) == saved.machineText,
                       [&] {
                           return "cache file: non-canonical machine text "
                                  "for entry " +
                                  loop.name();
                       });
        const core::PipelinerOptions options =
            parseOptionsText(saved.optionsText);
        support::check(canonicalOptionsText(options) == saved.optionsText,
                       [&] {
                           return "cache file: non-canonical options text "
                                  "for entry " +
                                  loop.name();
                       });

        const core::SoftwarePipeliner pipeliner(machine, options);
        core::PipelineResult result =
            pipeliner.pipeline(core::PipelineRequest(loop));
        cache_.insert(saved, std::move(result));
        ++loaded;
    }
    return loaded;
}

} // namespace ims::service
