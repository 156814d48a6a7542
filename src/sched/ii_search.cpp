#include "sched/ii_search.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "support/error.hpp"

namespace ims::sched {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace

std::string
attemptStatusName(AttemptStatus status)
{
    switch (status) {
      case AttemptStatus::kScheduled:
        return "scheduled";
      case AttemptStatus::kBudgetExhausted:
        return "budget_exhausted";
      case AttemptStatus::kInfeasible:
        return "infeasible";
    }
    return "?";
}

ModuloScheduleOutcome
runIiSearch(const IiSearchOptions& options, int res_mii, int mii,
            std::int64_t budget, const IiAttemptFn& attempt,
            support::Counters* counters, support::TelemetrySink* telemetry,
            const std::function<std::string()>& exhausted_message)
{
    ModuloScheduleOutcome outcome;
    outcome.resMii = res_mii;
    outcome.mii = mii;
    outcome.budget = budget;
    IiSearchStats& search = outcome.search;

    // Everything the walk learns is held here and published only after
    // it ends, so an exception from an attempt leaves the caller's
    // counters and sink untouched.
    support::Counters walked;
    std::optional<ScheduleResult> winner;

    // The last candidate in 64 bits: an increase near INT_MAX would
    // overflow `mii + maxIiIncrease` in int.
    const std::int64_t last = std::min<std::int64_t>(
        std::int64_t{mii} + options.maxIiIncrease,
        std::numeric_limits<int>::max());
    const auto search_start = std::chrono::steady_clock::now();
    for (std::int64_t ii = mii; ii <= last; ++ii) {
        const auto attempt_start = std::chrono::steady_clock::now();
        IiAttemptOutcome out = attempt(static_cast<int>(ii));
        const double seconds = secondsSince(attempt_start);
        walked += out.counters;
        if (out.status == AttemptStatus::kInfeasible)
            ++search.attemptsProvenInfeasible;
        search.records.push_back(
            {static_cast<int>(ii), out.schedule.has_value(), out.status,
             seconds});
        if (out.schedule.has_value()) {
            winner = std::move(out.schedule);
            break;
        }
    }
    search.wallSeconds = secondsSince(search_start);
    outcome.attempts = static_cast<int>(search.records.size());

    if (counters != nullptr)
        *counters += walked;
    if (telemetry != nullptr) {
        for (const IiAttemptRecord& record : search.records) {
            support::PhaseSample sample;
            sample.phase = support::Phase::kIiAttempt;
            sample.detail = record.ii;
            sample.seconds = record.seconds;
            sample.succeeded = record.feasible;
            telemetry->onPhase(sample);
        }
    }

    if (!winner.has_value()) {
        // The message is built only on this cold path; the code gives
        // the pipeliner's Diagnostic a stable machine-readable identity.
        throw support::CodedError("sched.ii_exhausted", exhausted_message());
    }

    // §4.3: "IterativeSchedule, on all but the last, successful
    // invocation, expends its entire budget each time."
    outcome.totalSteps = budget * (outcome.attempts - 1) + winner->stepsUsed;
    outcome.totalUnschedules = winner->unschedules;
    outcome.schedule = std::move(*winner);
    return outcome;
}

} // namespace ims::sched
