#include "sched/attempt.hpp"

#include "sched/mrt.hpp"
#include "support/counters.hpp"

namespace ims::sched {

void
AttemptCounters::flushInto(support::Counters& counters,
                           const ModuloReservationTable& mrt) const
{
    counters.estartPredecessorVisits += estartVisits;
    counters.estartIncrementalHits += estartIncrementalHits;
    counters.findTimeSlotProbes += slotProbes;
    counters.scheduleSteps += scheduleSteps;
    counters.unscheduleSteps += unscheduleSteps;
    counters.mrtMaskProbes += mrt.maskProbes();
    counters.mrtSlotScans += mrt.slotScans();
}

} // namespace ims::sched
