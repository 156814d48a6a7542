#ifndef IMS_SCHED_SCHEDULE_HPP
#define IMS_SCHED_SCHEDULE_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/dep_graph.hpp"
#include "graph/scc.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"
#include "sched/exact_scheduler.hpp"
#include "sched/ii_search.hpp"
#include "support/counters.hpp"

namespace ims::sched {

/**
 * Which scheduling backend decides feasibility at each candidate II.
 * All three run under the same Figure-2 outer loop (runIiSearch): the
 * same linear II walk, budget accounting and ii_* telemetry.
 */
enum class SchedulerStrategy
{
    /** The paper's iterative modulo scheduler (Figure 3) — the default. */
    kIterative,
    /** The Huff-style bidirectional slack scheduler (ablation baseline). */
    kSlack,
    /**
     * The exact branch-and-bound backend (sched/exact_scheduler.hpp):
     * proves feasibility or infeasibility per candidate II, so the first
     * feasible II it reports is the provably optimal one. Exponential in
     * the worst case; governed by ScheduleOptions::exactNodeBudget, and
     * throws support::CodedError("exact.budget_exhausted") when an
     * attempt is cut off undecided (optimality can no longer be proven).
     */
    kExact,
};

/** Stable lowercase name ("iterative", "slack", "exact"). */
std::string schedulerStrategyName(SchedulerStrategy strategy);

/** Inverse of schedulerStrategyName; nullopt for unknown names. */
std::optional<SchedulerStrategy>
schedulerStrategyByName(std::string_view name);

/**
 * The shared options for sched::schedule() — one flat struct covering
 * every backend. The priority/seed/trace knobs apply to the iterative
 * backend; `exactNodeBudget` to the exact backend; `search` and
 * `telemetry` to all three.
 */
struct ScheduleOptions
{
    SchedulerStrategy strategy = SchedulerStrategy::kIterative;
    /** The outer II loop's budget knobs (shared verbatim by every
     *  backend, so the Figure-2 knobs exist exactly once). */
    IiSearchOptions search;
    /** Priority scheme for the iterative backend (§3.2). */
    PriorityScheme priority = PriorityScheme::kHeightR;
    /** The §3.4 forward-progress rule (iterative backend). */
    bool forwardProgressRule = true;
    /** Seed for PriorityScheme::kRandom. */
    std::uint64_t randomSeed = 1;
    /** Per-candidate-II node budget for the exact backend. */
    std::int64_t exactNodeBudget = kDefaultExactNodeBudget;
    /** When non-null, every iterative scheduling step is appended here
     *  (iterative backend only). */
    std::vector<TraceEvent>* trace = nullptr;
    /** Sink receiving the MII-bound and replayed ii_attempt phases. */
    support::TelemetrySink* telemetry = nullptr;

    ScheduleOptions&
    withStrategy(SchedulerStrategy s)
    {
        strategy = s;
        return *this;
    }

    ScheduleOptions&
    withSearch(IiSearchOptions s)
    {
        search = s;
        return *this;
    }

    ScheduleOptions&
    withPriority(PriorityScheme scheme)
    {
        priority = scheme;
        return *this;
    }

    ScheduleOptions&
    withForwardProgressRule(bool enabled)
    {
        forwardProgressRule = enabled;
        return *this;
    }

    ScheduleOptions&
    withRandomSeed(std::uint64_t seed)
    {
        randomSeed = seed;
        return *this;
    }

    ScheduleOptions&
    withExactNodeBudget(std::int64_t budget)
    {
        exactNodeBudget = budget;
        return *this;
    }

    ScheduleOptions&
    withTelemetry(support::TelemetrySink* sink)
    {
        telemetry = sink;
        return *this;
    }
};

namespace detail {

/**
 * The Figure-2 walk as sched::schedule() runs it, handed to a backend:
 * the backend calls it once with its per-attempt budget, its attempt at
 * one candidate II and its "sched.ii_exhausted" message, and keeps its
 * per-walk state (reused buffers) in locals that outlive the call. Not
 * part of the API.
 */
using Walk = std::function<ModuloScheduleOutcome(
    std::int64_t budget, const IiAttemptFn& attempt,
    const std::function<std::string()>& exhausted_message)>;

ModuloScheduleOutcome iterativeBackend(const ir::Loop& loop,
                                       const machine::MachineModel& machine,
                                       const graph::DepGraph& graph,
                                       const graph::SccResult& sccs,
                                       const ScheduleOptions& options,
                                       const Walk& walk);

ModuloScheduleOutcome slackBackend(const ir::Loop& loop,
                                   const machine::MachineModel& machine,
                                   const graph::DepGraph& graph,
                                   const ScheduleOptions& options,
                                   const Walk& walk);

ModuloScheduleOutcome exactBackend(const ir::Loop& loop,
                                   const machine::MachineModel& machine,
                                   const graph::DepGraph& graph,
                                   const graph::SccResult& sccs,
                                   const ScheduleOptions& options,
                                   const Walk& walk);

} // namespace detail

/**
 * The single scheduling entry point and the one Figure-2 driver: compute
 * the MII and walk the candidate IIs with runIiSearch using the budget
 * and attempt of the backend selected by options.strategy. (The older
 * per-backend free functions were deprecated for one release and have
 * been removed; see docs/api.md for the migration table.)
 *
 * @throws support::CodedError "sched.ii_exhausted" when every candidate
 *         II fails, "exact.budget_exhausted" when the exact backend
 *         runs out of nodes at a candidate the walk reaches,
 *         "sched.too_large" before an attempt whose schedule times could
 *         exceed an int (sched::TimeBound) and "mii.too_large" when the
 *         RecMII lies beyond the MII search's range.
 * @throws support::Error before any backend work when `options` is
 *         invalid (non-positive BudgetRatio or exact node budget,
 *         negative maxIiIncrease, a trace outside the iterative
 *         backend).
 */
ModuloScheduleOutcome schedule(const ir::Loop& loop,
                               const machine::MachineModel& machine,
                               const graph::DepGraph& graph,
                               const graph::SccResult& sccs,
                               const ScheduleOptions& options = {},
                               support::Counters* counters = nullptr);

/** Convenience overload: builds the dependence graph and SCCs itself. */
ModuloScheduleOutcome schedule(const ir::Loop& loop,
                               const machine::MachineModel& machine,
                               const ScheduleOptions& options = {},
                               support::Counters* counters = nullptr);

} // namespace ims::sched

#endif // IMS_SCHED_SCHEDULE_HPP
