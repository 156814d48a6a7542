#ifndef IMS_SERVICE_SCHEDULE_CACHE_HPP
#define IMS_SERVICE_SCHEDULE_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeliner.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"

namespace ims::service {

/**
 * Identity of one schedule request, content-addressed: the three
 * canonical texts (loop in printer form, machine in machine_io form,
 * options in canonicalOptionsText form) plus their FNV-1a digest.
 * Lookups compare the *full material* on digest match, so two distinct
 * requests can never share an entry even under a 64-bit hash collision.
 */
struct CacheKey
{
    std::string loopText;
    std::string machineText;
    std::string optionsText;
    std::uint64_t hash = 0;

    /** The concatenated key material (components '\\x1f'-separated). */
    std::string material() const;

    /** Build a key and compute its digest. */
    static CacheKey make(std::string loop_text, std::string machine_text,
                         std::string options_text);
};

/** Cache sizing. */
struct CacheOptions
{
    /** Entries held before LRU eviction kicks in. */
    std::size_t capacity = 4096;
};

/** Observability counters (monotonically increasing, save/load aside). */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    /** Digest matches rejected by the full-material compare. */
    std::uint64_t hashCollisions = 0;
    std::size_t entries = 0;
};

/**
 * Content-addressed LRU map from CacheKey to a memoized PipelineResult,
 * behind one lock. Results are held by shared_ptr-to-const: a hit hands
 * out the same immutable object to any number of concurrent readers
 * while eviction merely drops the cache's reference.
 *
 * Failed results (result->ok() == false) are cached too — a loop the
 * scheduler diagnoses as infeasible is diagnosed deterministically, so
 * re-running it for every identical request would only burn the budget
 * again.
 */
class ScheduleCache
{
  public:
    explicit ScheduleCache(CacheOptions options = {});

    /** The memoized result, or nullptr on miss. Promotes the entry to
     *  most-recently-used. */
    std::shared_ptr<const core::PipelineResult> lookup(const CacheKey& key);

    /**
     * Memoize `result` under `key` (no-op if an entry with identical
     * material already exists — the first result wins; by determinism
     * both are identical anyway). Returns the cached pointer.
     */
    std::shared_ptr<const core::PipelineResult>
    insert(const CacheKey& key, core::PipelineResult result);

    CacheStats stats() const;

    /**
     * Serialize every entry's *request* (the three canonical texts) in
     * LRU order, least recent first. Results are deliberately not
     * serialized: the pipeline is deterministic, so a loaded cache is
     * re-materialized by re-running each request once (see
     * ScheduleService::loadCacheText) — the round-trip formats are the
     * only persistence substrate, and a stale or corrupt result can
     * never be resurrected.
     */
    std::string saveText() const;

    /**
     * Parse a saveText() document into its request keys (validation
     * only; re-materialization is the service's job since it needs a
     * pipeliner). @throws support::Error on malformed input.
     */
    static std::vector<CacheKey> parseSaveText(const std::string& text);

  private:
    struct Entry
    {
        CacheKey key;
        std::shared_ptr<const core::PipelineResult> result;
    };

    std::size_t capacity_ = 1;
    mutable std::mutex mutex_;
    /** Front = most recently used. */
    std::list<Entry> lru_;
    /** Digest -> entries with that digest (usually exactly one). */
    std::unordered_map<std::uint64_t, std::vector<std::list<Entry>::iterator>>
        byHash_;
    CacheStats stats_;
};

/**
 * Deterministic digest of everything in a PipelineResult that is a pure
 * function of (loop, machine, options): artifact identity via the full
 * schedule (II, times, alternatives), the rendered report, diagnostics
 * (severity, phase, message, code), and the telemetry summary (loop,
 * ops, MII bounds, II, attempts, schedule length, budget, steps,
 * backtracks, scheduler). Wall-clock timings, the work counters and the
 * II-search fields (ii_strategy, ii_workers,
 * ii_attempts_proven_infeasible) are excluded. This is the bit-identity
 * oracle the cache tests and bench_service gate on: a cache hit must
 * fingerprint identically to a cold run at any thread count.
 */
std::uint64_t fingerprintResult(const ir::Loop& loop,
                                const machine::MachineModel& machine,
                                const core::PipelineResult& result);

} // namespace ims::service

#endif // IMS_SERVICE_SCHEDULE_CACHE_HPP
