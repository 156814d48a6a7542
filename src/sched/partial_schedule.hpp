#ifndef IMS_SCHED_PARTIAL_SCHEDULE_HPP
#define IMS_SCHED_PARTIAL_SCHEDULE_HPP

#include <cstdint>
#include <vector>

#include "graph/dep_graph.hpp"
#include "ir/loop.hpp"
#include "machine/compiled_reservations.hpp"
#include "machine/machine_model.hpp"
#include "sched/mrt.hpp"

namespace ims::sched {

/**
 * Mutable scheduling state for one iterative-scheduling attempt at a fixed
 * II: per-vertex schedule times, chosen alternatives, the never-scheduled
 * and previous-schedule-time bookkeeping of Figures 3/4, and the modulo
 * reservation table.
 *
 * Vertices are the dependence graph's (loop operations plus START/STOP);
 * pseudo vertices occupy no resources.
 *
 * The per-vertex state lives in one arena allocation laid out as four
 * struct-of-arrays planes (time, prevTime, alternative, flags), so a
 * scheduling step touches a handful of adjacent cache lines instead of
 * five separately allocated vectors (two of them bit-packed
 * vector<bool>s).
 *
 * Construction compiles the alternatives of each opcode the loop uses
 * for this II (machine::CompiledReservationTable), once per attempt,
 * into a list indexed by opcode; START and STOP share one empty
 * alternative. The II walk tries each II once, so no compiled list is
 * ever wanted by a later attempt.
 */
class PartialSchedule
{
  public:
    PartialSchedule(const graph::DepGraph& graph, const ir::Loop& loop,
                    const machine::MachineModel& machine, int ii);
    /** Not copyable: compiled_ points into this object's own lists. */
    PartialSchedule(const PartialSchedule&) = delete;
    PartialSchedule& operator=(const PartialSchedule&) = delete;

    int ii() const { return ii_; }

    bool
    isScheduled(graph::VertexId v) const
    {
        return (flags_[v] & kScheduled) != 0;
    }

    /** Schedule time; only meaningful while isScheduled(v). */
    int timeOf(graph::VertexId v) const { return time_[v]; }

    /** Chosen alternative index; only meaningful while isScheduled(v). */
    int alternativeOf(graph::VertexId v) const { return alternative_[v]; }

    bool
    neverScheduled(graph::VertexId v) const
    {
        return (flags_[v] & kEverScheduled) == 0;
    }

    /** Time at which v was last scheduled (valid once !neverScheduled). */
    int prevScheduleTime(graph::VertexId v) const { return prevTime_[v]; }

    /** Number of currently scheduled vertices. */
    int numScheduled() const { return numScheduled_; }

    /** `v`'s alternatives compiled for this II, in machine order. */
    const std::vector<machine::CompiledReservationTable>&
    compiledAlternativesOf(graph::VertexId v) const
    {
        return *compiled_[v];
    }

    const ModuloReservationTable& mrt() const { return mrt_; }

    /**
     * First alternative of `v` that fits conflict-free at `time`, or -1.
     */
    int fittingAlternative(graph::VertexId v, int time) const;

    /**
     * Place `v` at `time` using `alternative` (must fit conflict-free);
     * updates never/prev bookkeeping.
     */
    void place(graph::VertexId v, int time, int alternative);

    /** Displace `v` from the schedule, freeing its reservations. */
    void remove(graph::VertexId v);

    /**
     * True if some alternative of every vertex is usable at this II (no
     * modulo self-collision); when false, no schedule exists at this II
     * regardless of placement.
     */
    bool allVerticesPlaceable() const;

  private:
    static constexpr std::int32_t kScheduled = 1;
    static constexpr std::int32_t kEverScheduled = 2;

    const graph::DepGraph& graph_;
    int ii_;
    ModuloReservationTable mrt_;
    /** Compiled alternatives per opcode; empty for opcodes not used. */
    std::vector<std::vector<machine::CompiledReservationTable>>
        compiledByOpcode_;
    /** Per vertex, its opcode's entry of compiledByOpcode_. */
    std::vector<const std::vector<machine::CompiledReservationTable>*>
        compiled_;
    /** The arena: four numVertices()-sized int32 planes, one allocation. */
    std::vector<std::int32_t> arena_;
    std::int32_t* time_ = nullptr;
    std::int32_t* prevTime_ = nullptr;
    std::int32_t* alternative_ = nullptr;
    std::int32_t* flags_ = nullptr;
    int numScheduled_ = 0;
};

} // namespace ims::sched

#endif // IMS_SCHED_PARTIAL_SCHEDULE_HPP
