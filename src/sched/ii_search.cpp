#include "sched/ii_search.hpp"

#include <chrono>
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
      case AttemptStatus::kCancelled:
        return "cancelled";
    }
    return "?";
}

std::string
iiSearchKindName(IiSearchKind kind)
{
    switch (kind) {
      case IiSearchKind::kLinear:
        return "linear";
      case IiSearchKind::kFeedback:
        return "feedback";
    }
    return "?";
}

std::optional<IiSearchKind>
iiSearchKindByName(std::string_view name)
{
    if (name == "linear")
        return IiSearchKind::kLinear;
    if (name == "feedback")
        return IiSearchKind::kFeedback;
    return std::nullopt;
}

ModuloScheduleOutcome
runIiSearch(const IiSearchOptions& options, int res_mii, int mii,
            std::int64_t budget, const IiAttemptFn& attempt,
            const IiInfeasibilityProbe& probe, support::Counters* counters,
            support::TelemetrySink* telemetry,
            const std::function<std::string()>& exhausted_message)
{
    ModuloScheduleOutcome outcome;
    outcome.resMii = res_mii;
    outcome.mii = mii;
    outcome.budget = budget;
    IiSearchStats& search = outcome.search;
    search.strategy = iiSearchKindName(options.kind);

    // Everything the walk learns is held here and published only after
    // it ends, so an exception from an attempt or the probe leaves the
    // caller's counters and sink untouched.
    support::Counters walked;
    std::optional<ScheduleResult> winner;
    // The report of the most recent failed attempt, offered to the probe
    // before the next candidate is attempted. A skip does not replace it.
    std::optional<AttemptFeedback> last_feedback;

    const auto search_start = std::chrono::steady_clock::now();
    for (int ii = mii; ii <= mii + options.maxIiIncrease; ++ii) {
        if (probe != nullptr && last_feedback &&
            last_feedback->conclusive()) {
            const auto probe_start = std::chrono::steady_clock::now();
            if (probe(ii, *last_feedback)) {
                // A probe-proven skip: record it (status kInfeasible,
                // seconds = probe time) but fold no counters and count
                // no attempt — the point is that no attempt ran.
                ++search.skippedIis;
                search.records.push_back({ii, false,
                                          AttemptStatus::kInfeasible,
                                          secondsSince(probe_start),
                                          /*skipped=*/true});
                continue;
            }
        }
        const auto attempt_start = std::chrono::steady_clock::now();
        IiAttemptOutcome out = attempt(ii);
        const double seconds = secondsSince(attempt_start);
        walked += out.counters;
        if (out.status == AttemptStatus::kInfeasible)
            ++search.attemptsProvenInfeasible;
        search.records.push_back({ii, out.schedule.has_value(), out.status,
                                  seconds, /*skipped=*/false});
        if (out.schedule.has_value()) {
            winner = std::move(out.schedule);
            break;
        }
        last_feedback = std::move(out.feedback);
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
    // invocation, expends its entire budget each time." Probe-skipped
    // candidates never invoked the scheduler, so they bill nothing —
    // the step saving the feedback strategy exists to deliver.
    outcome.totalSteps =
        budget * (outcome.attempts - 1 - search.skippedIis) +
        winner->stepsUsed;
    outcome.totalUnschedules = winner->unschedules;
    outcome.schedule = std::move(*winner);
    return outcome;
}

} // namespace ims::sched
