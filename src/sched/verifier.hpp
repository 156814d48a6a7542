#ifndef IMS_SCHED_VERIFIER_HPP
#define IMS_SCHED_VERIFIER_HPP

#include <string>
#include <vector>

#include "graph/dep_graph.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"
#include "sched/attempt.hpp"

namespace ims::sched {

/** Machine-readable classification of a schedule-legality violation. */
enum class ViolationKind
{
    /** II < 1. */
    kBadIi,
    /** times/alternatives arrays do not match the loop size. */
    kShapeMismatch,
    /** An operation is scheduled at a negative time. */
    kNegativeTime,
    /** An operation's alternative index is out of range. */
    kInvalidAlternative,
    /** A dependence edge constraint is not met. */
    kDependence,
    /** A chosen alternative's table collides with itself at this II. */
    kSelfConflict,
    /** Two operations double-book a resource at some modulo slot. */
    kResourceConflict,
};

/** Stable lowercase identifier, e.g. "dependence" (used in diagnostics). */
std::string violationKindName(ViolationKind kind);

/**
 * One structured legality violation. The ids give the failure a
 * machine-readable identity — the fuzz minimizer relies on `kind` to
 * confirm a shrunken case still exhibits the same bug — and the
 * human-readable message is derived from the fields by toString().
 */
struct Violation
{
    ViolationKind kind = ViolationKind::kBadIi;
    /** Offending operation (the dependence successor for kDependence),
     *  or -1 when not operation-specific. */
    ir::OpId op = -1;
    /** Second operation involved (dependence predecessor / conflicting
     *  occupant), or -1. */
    ir::OpId other = -1;
    /** Violated edge for kDependence, else -1. */
    graph::EdgeId edge = -1;
    /** Scheduled time of `op` (-1 when not applicable). */
    int time = -1;
    /** Earliest legal time for kDependence (0 otherwise). */
    long long required = 0;

    /** Human-readable description derived from the structured fields. */
    std::string toString() const;
};

/**
 * Independent legality checker for modulo schedules. A schedule is legal
 * (§1: "no intra- or inter-iteration dependence is violated, and no
 * resource usage conflict arises between operations of either the same or
 * distinct iterations") iff:
 *
 *  - every dependence edge e: P -> Q satisfies
 *      t(Q) >= t(P) + Delay(e) - II * Distance(e);
 *  - placing every chosen alternative's reservation table on an II-row
 *    owner grid books no cell twice (the grid is the verifier's own, not
 *    the schedulers' modulo reservation table);
 *  - every time is >= 0 and every alternative index is valid.
 *
 * Returns the structured violations; empty means legal. Every schedule
 * produced in the test and benchmark suites is passed through this
 * checker, and the fuzz subsystem uses it as its structural oracle.
 */
std::vector<Violation> verifySchedule(const ir::Loop& loop,
                                      const machine::MachineModel& machine,
                                      const graph::DepGraph& graph,
                                      const ScheduleResult& schedule);

} // namespace ims::sched

#endif // IMS_SCHED_VERIFIER_HPP
