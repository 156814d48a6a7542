#include "service/schedule_cache.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "core/report.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/parse_number.hpp"
#include "support/text.hpp"

namespace ims::service {

namespace {

/** Component separator for the key material: never appears in the
 *  canonical texts (they are printable-ASCII line-oriented formats). */
constexpr char kSeparator = '\x1f';

} // namespace

std::string
CacheKey::material() const
{
    std::string out;
    out.reserve(loopText.size() + machineText.size() + optionsText.size() +
                2);
    out += loopText;
    out += kSeparator;
    out += machineText;
    out += kSeparator;
    out += optionsText;
    return out;
}

CacheKey
CacheKey::make(std::string loop_text, std::string machine_text,
               std::string options_text)
{
    CacheKey key;
    key.loopText = std::move(loop_text);
    key.machineText = std::move(machine_text);
    key.optionsText = std::move(options_text);
    key.hash = support::fnv1a(key.material());
    return key;
}

ScheduleCache::ScheduleCache(CacheOptions options)
    : capacity_(std::max<std::size_t>(1, options.capacity))
{
}

std::shared_ptr<const core::PipelineResult>
ScheduleCache::lookup(const CacheKey& key)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto bucket = byHash_.find(key.hash);
    if (bucket != byHash_.end()) {
        for (const auto entry_it : bucket->second) {
            if (entry_it->key.loopText == key.loopText &&
                entry_it->key.machineText == key.machineText &&
                entry_it->key.optionsText == key.optionsText) {
                ++stats_.hits;
                // Promote: splice to the front of the LRU list
                // (iterators stay valid, byHash_ needs no update).
                lru_.splice(lru_.begin(), lru_, entry_it);
                return entry_it->result;
            }
            ++stats_.hashCollisions;
        }
    }
    ++stats_.misses;
    return nullptr;
}

std::shared_ptr<const core::PipelineResult>
ScheduleCache::insert(const CacheKey& key, core::PipelineResult result)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    // First writer wins: a racing duplicate insert returns the existing
    // entry (deterministic pipeline => both results are identical).
    const auto bucket = byHash_.find(key.hash);
    if (bucket != byHash_.end()) {
        for (const auto entry_it : bucket->second) {
            if (entry_it->key.loopText == key.loopText &&
                entry_it->key.machineText == key.machineText &&
                entry_it->key.optionsText == key.optionsText)
                return entry_it->result;
        }
    }

    lru_.push_front(Entry{
        key, std::make_shared<const core::PipelineResult>(
                 std::move(result))});
    byHash_[key.hash].push_back(lru_.begin());
    ++stats_.insertions;

    while (lru_.size() > capacity_) {
        const auto victim = std::prev(lru_.end());
        auto& siblings = byHash_[victim->key.hash];
        siblings.erase(
            std::remove(siblings.begin(), siblings.end(), victim),
            siblings.end());
        if (siblings.empty())
            byHash_.erase(victim->key.hash);
        lru_.erase(victim);
        ++stats_.evictions;
    }
    return lru_.front().result;
}

CacheStats
ScheduleCache::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    CacheStats stats = stats_;
    stats.entries = lru_.size();
    return stats;
}

std::string
ScheduleCache::saveText() const
{
    std::ostringstream out;
    out << "ims-schedule-cache v1\n";
    const std::lock_guard<std::mutex> lock(mutex_);
    // Least recent first so a loader replaying in order leaves the most
    // recently used entries freshest.
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        const CacheKey& key = it->key;
        out << "entry " << key.loopText.size() << " "
            << key.machineText.size() << " " << key.optionsText.size()
            << "\n"
            << key.loopText << key.machineText << key.optionsText;
    }
    return out.str();
}

std::vector<CacheKey>
ScheduleCache::parseSaveText(const std::string& text)
{
    std::size_t pos = 0;
    const auto read_line = [&text, &pos]() {
        const std::size_t end = std::min(text.find('\n', pos), text.size());
        std::string line = text.substr(pos, end - pos);
        pos = std::min(end + 1, text.size());
        return line;
    };
    const std::string header = read_line();
    support::check(header == "ims-schedule-cache v1", [&] {
        return "cache file: unknown header '" + header + "'";
    });

    std::vector<CacheKey> keys;
    while (pos < text.size()) {
        const std::string line = read_line();
        if (line.empty())
            continue;
        const auto words = support::splitWords(line);
        std::size_t bytes[3] = {};
        support::check(words.size() == 4 && words[0] == "entry" &&
                           support::parseNumber(words[1], bytes[0]) &&
                           support::parseNumber(words[2], bytes[1]) &&
                           support::parseNumber(words[3], bytes[2]),
                       [&] {
                           return "cache file: malformed entry line '" +
                                  line + "'";
                       });
        // Each count is checked against the text that is left before
        // anything is allocated for it.
        std::string blocks[3];
        for (int i = 0; i < 3; ++i) {
            support::check(bytes[i] <= text.size() - pos,
                           "cache file: truncated entry");
            blocks[i] = text.substr(pos, bytes[i]);
            pos += bytes[i];
        }
        keys.push_back(CacheKey::make(std::move(blocks[0]),
                                      std::move(blocks[1]),
                                      std::move(blocks[2])));
    }
    return keys;
}

std::uint64_t
fingerprintResult(const ir::Loop& loop,
                  const machine::MachineModel& machine,
                  const core::PipelineResult& result)
{
    support::Fnv1a digest;
    digest.update(result.ok() ? "ok" : "failed");
    for (const auto& diagnostic : result.diagnostics) {
        digest.update(diagnostic.severity ==
                              core::Diagnostic::Severity::kError
                          ? "E"
                          : "W");
        digest.update(diagnostic.phase);
        digest.update(diagnostic.message);
        digest.update(diagnostic.code);
    }

    const auto& telemetry = result.telemetry;
    digest.update(telemetry.loop);
    digest.update(static_cast<std::uint64_t>(telemetry.ops));
    digest.update(static_cast<std::uint64_t>(telemetry.resMii));
    digest.update(static_cast<std::uint64_t>(telemetry.mii));
    digest.update(static_cast<std::uint64_t>(telemetry.ii));
    digest.update(static_cast<std::uint64_t>(telemetry.attempts));
    digest.update(static_cast<std::uint64_t>(telemetry.scheduleLength));
    digest.update(static_cast<std::uint64_t>(telemetry.budget));
    digest.update(static_cast<std::uint64_t>(telemetry.stepsTotal));
    digest.update(static_cast<std::uint64_t>(telemetry.backtracks));
    digest.update(telemetry.scheduler);

    if (result.ok()) {
        const auto& artifacts = *result.artifacts;
        const auto& schedule = artifacts.outcome.schedule;
        digest.update(static_cast<std::uint64_t>(schedule.ii));
        for (std::size_t v = 0; v < schedule.times.size(); ++v) {
            digest.update(static_cast<std::uint64_t>(schedule.times[v]));
            digest.update(
                static_cast<std::uint64_t>(schedule.alternatives[v]));
        }
        digest.update(static_cast<std::uint64_t>(schedule.stepsUsed));
        digest.update(static_cast<std::uint64_t>(schedule.unschedules));
        digest.update(
            static_cast<std::uint64_t>(artifacts.minScheduleLength));
        // The rendered report covers kernel rows, MVE plan, register
        // allocation and the baseline comparison in one deterministic
        // text — any divergence in the downstream artifacts shows here.
        digest.update(core::report(loop, machine, artifacts));
    }
    return digest.digest();
}

} // namespace ims::service
