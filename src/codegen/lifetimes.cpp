#include "codegen/lifetimes.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace ims::codegen {

int
checkedLifetimeInt(std::int64_t value, const char* what)
{
    if (value > std::numeric_limits<int>::max()) {
        throw support::CodedError(
            "codegen.too_large", std::string(what) + " " +
                                     std::to_string(value) +
                                     " does not fit in int");
    }
    return static_cast<int>(value);
}

LifetimeAnalysis
analyzeLifetimes(const ir::Loop& loop, const machine::MachineModel& machine,
                 const sched::ScheduleResult& schedule,
                 support::TelemetrySink* sink)
{
    support::PhaseTimer timer(sink, support::Phase::kLifetimes);
    LifetimeAnalysis analysis;
    const std::int64_t ii = schedule.ii;

    // One pass: each value ends no earlier than its definition's latency,
    // and each register operand raises its value's end to the reader's
    // time + distance * II + 1. Pure live-ins are allocated outside the
    // loop and get no lifetime.
    std::vector<std::int64_t> end_time(loop.numRegisters(), 0);
    for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
        const ir::OpId def = loop.definingOp(reg);
        if (def >= 0) {
            end_time[reg] = static_cast<std::int64_t>(schedule.times[def]) +
                            machine.latency(loop.operation(def).opcode);
        }
    }
    for (const auto& op : loop.operations()) {
        const auto consider = [&](const ir::Operand& src) {
            if (!src.isRegister())
                return;
            const std::int64_t use_end =
                schedule.times[op.id] + src.distance * ii + 1;
            end_time[src.reg] = std::max(end_time[src.reg], use_end);
        };
        for (const auto& src : op.sources)
            consider(src);
        if (op.guard)
            consider(*op.guard);
    }

    analysis.lifetimes.reserve(loop.numRegisters());
    for (ir::RegId reg = 0; reg < loop.numRegisters(); ++reg) {
        const ir::OpId def = loop.definingOp(reg);
        if (def < 0)
            continue;
        RegisterLifetime lifetime;
        lifetime.reg = reg;
        lifetime.def = def;
        lifetime.defTime = schedule.times[def];
        lifetime.endTime = checkedLifetimeInt(end_time[reg], "lifetime end");
        analysis.lifetimes.push_back(lifetime);
    }

    analysis.kmin = 1;
    for (const auto& lifetime : analysis.lifetimes) {
        const std::int64_t k = (lifetime.length() + ii - 1) / ii;
        analysis.kmin = std::max(analysis.kmin, static_cast<int>(k));
    }

    // MaxLive: for each cycle c of the steady-state kernel, count how many
    // copies of each value are live: copies(v, c) = #{k >= 0 :
    // defTime <= c + k*II < endTime}, the times in [defTime, endTime)
    // congruent to c mod II (times before 0 fall in no row). Each row
    // gets length / II of them, and a circular run of length % II rows
    // starting at row defTime % II gets one more; the runs are summed in
    // a difference array over the rows, so the work is O(II + values).
    std::int64_t full = 0;
    std::vector<std::int64_t> extra(static_cast<std::size_t>(ii) + 1, 0);
    for (const auto& lifetime : analysis.lifetimes) {
        const std::int64_t start = std::max(lifetime.defTime, 0);
        const std::int64_t length = lifetime.endTime - start;
        if (length <= 0)
            continue;
        full += length / ii;
        const std::int64_t rest = length % ii;
        const std::int64_t first = start % ii;
        if (rest == 0)
            continue;
        ++extra[first];
        if (first + rest <= ii) {
            --extra[first + rest];
        } else { // the run wraps past the last row
            ++extra[0];
            --extra[first + rest - ii];
        }
    }
    std::int64_t live = 0;
    std::int64_t most_extra = 0;
    for (std::int64_t c = 0; c < ii; ++c) {
        live += extra[c];
        most_extra = std::max(most_extra, live);
    }
    const std::int64_t max_live = full + most_extra;
    analysis.maxLive = checkedLifetimeInt(max_live, "MaxLive");
    return analysis;
}

} // namespace ims::codegen
