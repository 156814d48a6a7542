#ifndef IMS_SCHED_II_SEARCH_HPP
#define IMS_SCHED_II_SEARCH_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sched/attempt.hpp"
#include "support/counters.hpp"
#include "support/telemetry.hpp"

namespace ims::sched {

/**
 * The Figure-2 walk's knobs, shared by every scheduling backend (all
 * consume them through ScheduleOptions::search, so the
 * budget/maxIiIncrease knobs exist exactly once).
 */
struct IiSearchOptions
{
    /**
     * "BudgetRatio is the ratio of the maximum number of operation
     * scheduling steps attempted (before giving up and trying a larger
     * initiation interval) to the number of operations in the loop." The
     * paper's experiments use 6 for the quality study and recommend 2
     * (§4.3/§5); 2 is the default here.
     */
    double budgetRatio = 2.0;
    /** Safety bound on II above the MII before giving up entirely. */
    int maxIiIncrease = 4096;

    IiSearchOptions&
    withBudgetRatio(double ratio)
    {
        budgetRatio = ratio;
        return *this;
    }

    IiSearchOptions&
    withMaxIiIncrease(int increase)
    {
        maxIiIncrease = increase;
        return *this;
    }
};

/** Stable lowercase name of an AttemptStatus ("scheduled", ...). */
std::string attemptStatusName(AttemptStatus status);

/** Callback scheduling one candidate II. */
using IiAttemptFn = std::function<IiAttemptOutcome(int ii)>;

/** One candidate II the walk visited, for telemetry. */
struct IiAttemptRecord
{
    int ii = 0;
    bool feasible = false;
    /** Why the attempt ended (kScheduled iff `feasible`). */
    AttemptStatus status = AttemptStatus::kBudgetExhausted;
    /** Wall time of the attempt (nondeterministic; observability only). */
    double seconds = 0.0;
};

/**
 * How the II search went. Everything except `wallSeconds` and the
 * per-record `seconds` is deterministic.
 */
struct IiSearchStats
{
    /** Always "linear": the walk tries every candidate in order. */
    std::string strategy = "linear";
    /** Workers the search ran with; always 1 (the walk is sequential). */
    int workers = 1;
    /**
     * Attempts whose candidate II was *proven* infeasible
     * (AttemptStatus::kInfeasible), as opposed to running out of budget.
     * For the exact backend this counts actual optimality proofs (see
     * sched/exact_scheduler.hpp).
     */
    int attemptsProvenInfeasible = 0;
    /** End-to-end wall time of the search. */
    double wallSeconds = 0.0;
    /** One record per visited candidate, in II order. */
    std::vector<IiAttemptRecord> records;
};

/** Outcome of modulo scheduling a loop. */
struct ModuloScheduleOutcome
{
    ScheduleResult schedule;
    /**
     * Stable name of the backend that produced the schedule
     * ("iterative", "slack", "exact" — see sched::SchedulerStrategy), so
     * downstream consumers (telemetry JSON, benches, scripts/check_perf)
     * can assert which scheduler actually ran.
     */
    std::string scheduler = "iterative";
    /** Resource-constrained lower bound. */
    int resMii = 1;
    /** MII = max(ResMII, RecMII) as computed by the production protocol. */
    int mii = 1;
    /** Candidate IIs attempted, winner included (>= 1): winner - MII + 1. */
    int attempts = 0;
    /** Per-attempt step budget (BudgetRatio * NumberOfOperations). */
    std::int64_t budget = 0;
    /** Scheduling steps summed over all attempts, failed ones included. */
    std::int64_t totalSteps = 0;
    /** Unschedule steps summed over all attempts. */
    std::int64_t totalUnschedules = 0;
    /** II-search identity and per-candidate records. */
    IiSearchStats search;
};

/**
 * The shared Figure-2 outer loop: walk the candidate IIs mii, mii+1, ...,
 * mii + options.maxIiIncrease (at most INT_MAX), calling `attempt` on
 * each until one succeeds.
 *
 * When the walk ends — on success or on exhaustion — the attempts'
 * counter deltas are flushed into `counters`, one Phase::kIiAttempt
 * sample per attempted candidate is replayed into `telemetry` in II
 * order, and §4.3 budget accounting is applied (every failed attempt
 * bills its full budget, the winner bills the steps it used). An
 * exception from `attempt` propagates at once, and then neither
 * `counters` nor `telemetry` has seen anything of the walk.
 *
 * sched::schedule() is the one production caller: it computes the MII
 * and takes the budget, the attempt callback and the exhaustion message
 * from the selected backend.
 *
 * @throws support::CodedError (code "sched.ii_exhausted", message built
 *         lazily from `exhausted_message`) when every candidate fails.
 */
ModuloScheduleOutcome
runIiSearch(const IiSearchOptions& options, int res_mii, int mii,
            std::int64_t budget, const IiAttemptFn& attempt,
            support::Counters* counters, support::TelemetrySink* telemetry,
            const std::function<std::string()>& exhausted_message);

} // namespace ims::sched

#endif // IMS_SCHED_II_SEARCH_HPP
