#ifndef IMS_SCHED_II_SEARCH_HPP
#define IMS_SCHED_II_SEARCH_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sched/iterative_scheduler.hpp"
#include "support/counters.hpp"
#include "support/telemetry.hpp"

namespace ims::sched {

/**
 * How the outer loop of Figure 2 walks the candidate IIs. Both policies
 * walk mii, mii+1, ... one candidate at a time and return the *lowest
 * feasible* II.
 *
 * Feedback walks the candidates like linear, but mines each failed
 * attempt's AttemptFeedback report: before attempting the next
 * candidate it asks an infeasibility probe (the exact backend run on the
 * bottleneck subgraph of the failed attempts) whether the candidate is
 * *provably* impossible, and skips it without attempting when so. A
 * skipped II is one the linear search would have attempted and failed,
 * so the winner — and the winning schedule, a pure function of the
 * winning II — is bit-identical to linear; when the probe is
 * inconclusive the strategy degenerates to exactly the linear walk. See
 * docs/ALGORITHM.md, "Feedback-guided search".
 */
enum class IiSearchKind
{
    kLinear,
    kFeedback,
};

/** Stable lowercase name ("linear", "feedback"). */
std::string iiSearchKindName(IiSearchKind kind);

/** Inverse of iiSearchKindName; nullopt for unknown names. */
std::optional<IiSearchKind> iiSearchKindByName(std::string_view name);

/**
 * The II-search policy shared by every scheduling backend (all consume
 * it through ScheduleOptions::search, so the budget/maxIiIncrease knobs
 * exist exactly once).
 */
struct IiSearchOptions
{
    IiSearchKind kind = IiSearchKind::kLinear;
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
    withKind(IiSearchKind k)
    {
        kind = k;
        return *this;
    }

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

/**
 * One schedule attempt at a fixed candidate II, as seen by the walk.
 * `counters` is the attempt's *own* batched counter delta; `status`
 * reports *why* the attempt ended — in particular it distinguishes
 * kInfeasible (this II is proven impossible; re-trying with a larger
 * budget is pointless) from kBudgetExhausted (undecided).
 */
struct IiAttemptOutcome
{
    std::optional<ScheduleResult> schedule;
    AttemptStatus status = AttemptStatus::kBudgetExhausted;
    support::Counters counters;
    /**
     * The attempt's bottleneck report (sched/attempt_feedback.hpp). Every
     * backend populates it under the feedback strategy; otherwise it
     * stays empty and costs nothing.
     */
    AttemptFeedback feedback;
};

/** Callback scheduling one candidate II. */
using IiAttemptFn = std::function<IiAttemptOutcome(int ii)>;

/**
 * Infeasibility probe for the feedback strategy: given the next
 * candidate II and the most recent failed attempt's feedback report,
 * return true iff the candidate is *proven* infeasible (so the search
 * may skip it without attempting). Soundness is the caller's obligation
 * — a skip without a proof would desynchronise the feedback search from
 * linear. The walk calls it in II order, so it may keep mutable state
 * (the accumulated bottleneck subgraph).
 */
using IiInfeasibilityProbe =
    std::function<bool(int ii, const AttemptFeedback& feedback)>;

/** One candidate II the walk visited, for telemetry. */
struct IiAttemptRecord
{
    int ii = 0;
    bool feasible = false;
    /** Why the attempt ended (kScheduled iff `feasible`). */
    AttemptStatus status = AttemptStatus::kBudgetExhausted;
    /** Wall time of the attempt (nondeterministic; observability only). */
    double seconds = 0.0;
    /** True when the feedback strategy skipped this candidate: the probe
     *  proved it infeasible and no attempt ran (`status` is kInfeasible,
     *  `seconds` is the probe time). Always false for linear. */
    bool skipped = false;
};

/**
 * How the II search went. Everything except `wallSeconds` and the
 * per-record `seconds` is deterministic.
 */
struct IiSearchStats
{
    /** "linear" or "feedback". */
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
    /**
     * Candidates the feedback strategy skipped because its probe proved
     * them infeasible without attempting them (their records carry
     * `skipped`; no budget is billed for them). Always 0 for linear.
     */
    int skippedIis = 0;
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
    /** Candidate IIs visited, winner included (>= 1): winner - MII + 1,
     *  probe-skipped candidates included. */
    int attempts = 0;
    /** Per-attempt step budget (BudgetRatio * NumberOfOperations). */
    std::int64_t budget = 0;
    /** Scheduling steps summed over all attempts, failed ones included. */
    std::int64_t totalSteps = 0;
    /** Unschedule steps summed over all attempts. */
    std::int64_t totalUnschedules = 0;
    /** II-search strategy identity and per-candidate records. */
    IiSearchStats search;
};

/**
 * The shared Figure-2 outer loop: walk the candidate IIs mii, mii+1, ...,
 * mii + options.maxIiIncrease, calling `attempt` on each until one
 * succeeds. When `probe` is non-empty, each candidate after a failed
 * attempt with a conclusive report is first offered to `probe`; a proven
 * candidate is skipped without attempting it. `options.kind` only names
 * the walk in the stats: sched::schedule() passes a probe exactly when
 * the kind is IiSearchKind::kFeedback.
 *
 * When the walk ends — on success or on exhaustion — the attempts'
 * counter deltas are flushed into `counters`, one Phase::kIiAttempt
 * sample per visited candidate is replayed into `telemetry` in II order,
 * and §4.3 budget accounting is applied (every attempted failure bills
 * its full budget, probe-skipped candidates bill nothing, the winner
 * bills the steps it used). An exception from `attempt` or `probe`
 * propagates at once, and then neither `counters` nor `telemetry` has
 * seen anything of the walk.
 *
 * sched::schedule() is the one production caller: it computes the MII,
 * builds the FeedbackProbe, and takes the budget, the attempt callback
 * and the exhaustion message from the selected backend.
 *
 * @throws support::CodedError (code "sched.ii_exhausted", message built
 *         lazily from `exhausted_message`) when every candidate fails.
 */
ModuloScheduleOutcome
runIiSearch(const IiSearchOptions& options, int res_mii, int mii,
            std::int64_t budget, const IiAttemptFn& attempt,
            const IiInfeasibilityProbe& probe, support::Counters* counters,
            support::TelemetrySink* telemetry,
            const std::function<std::string()>& exhausted_message);

} // namespace ims::sched

#endif // IMS_SCHED_II_SEARCH_HPP
