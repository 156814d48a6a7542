#include "support/telemetry.hpp"

#include <array>
#include <cmath>
#include <cstdio>
#include <limits>

#include "support/table.hpp"

namespace ims::support {

namespace {

constexpr std::array<const char*, kNumPhases> kPhaseNames = {
    "graph_build", "mii_bounds", "ii_attempt", "list_schedule",
    "codegen",     "lifetimes",  "regalloc",   "verify",
};

/** Name -> member map keeping the JSON schema and Counters in lockstep. */
struct CounterField
{
    const char* name;
    std::uint64_t Counters::* field;
};

constexpr std::array<CounterField, 12> kCounterFields = {{
    {"scc_edge_visits", &Counters::sccEdgeVisits},
    {"res_mii_inspections", &Counters::resMiiInspections},
    {"min_dist_inner_steps", &Counters::minDistInnerSteps},
    {"min_dist_invocations", &Counters::minDistInvocations},
    {"height_r_inner_steps", &Counters::heightRInnerSteps},
    {"estart_predecessor_visits", &Counters::estartPredecessorVisits},
    {"estart_incremental_hits", &Counters::estartIncrementalHits},
    {"find_time_slot_probes", &Counters::findTimeSlotProbes},
    {"schedule_steps", &Counters::scheduleSteps},
    {"unschedule_steps", &Counters::unscheduleSteps},
    {"mrt_mask_probes", &Counters::mrtMaskProbes},
    {"mrt_slot_scans", &Counters::mrtSlotScans},
}};

/**
 * Round-trippable double for JSON. JSON has no NaN/Infinity literals, so
 * non-finite values must never reach the printf path (%.17g would emit
 * bare "nan"/"inf" and corrupt the document): NaN becomes null (an absent
 * measurement) and infinities clamp to +/-DBL_MAX.
 */
std::string
formatJsonDouble(double value)
{
    if (std::isnan(value))
        return "null";
    if (std::isinf(value))
        value = std::copysign(std::numeric_limits<double>::max(), value);
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

} // namespace

void
appendJsonString(std::string& out, std::string_view text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

std::string
jsonString(std::string_view text)
{
    std::string out;
    appendJsonString(out, text);
    return out;
}

const char*
phaseName(Phase phase)
{
    return kPhaseNames[static_cast<int>(phase)];
}

PhaseTimer::PhaseTimer(TelemetrySink* sink, Phase phase, int detail)
    : sink_(sink)
{
    sample_.phase = phase;
    sample_.detail = detail;
    if (sink_ != nullptr)
        start_ = std::chrono::steady_clock::now();
}

PhaseTimer::~PhaseTimer()
{
    if (sink_ == nullptr)
        return;
    sample_.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    sink_->onPhase(sample_);
}

double
PipelineTelemetry::phaseSeconds(Phase phase) const
{
    double total = 0.0;
    for (const auto& sample : phases) {
        if (sample.phase == phase)
            total += sample.seconds;
    }
    return total;
}

int
PipelineTelemetry::phaseCalls(Phase phase) const
{
    int calls = 0;
    for (const auto& sample : phases) {
        if (sample.phase == phase)
            ++calls;
    }
    return calls;
}

std::string
PipelineTelemetry::toJson() const
{
    std::string out = "{";
    out += "\"schema\":\"ims.telemetry.v1\",";
    out += "\"loop\":";
    appendJsonString(out, loop);
    out += ",\"ops\":" + std::to_string(ops);
    out += ",\"succeeded\":" + std::string(succeeded ? "true" : "false");
    out += ",\"res_mii\":" + std::to_string(resMii);
    out += ",\"mii\":" + std::to_string(mii);
    out += ",\"ii\":" + std::to_string(ii);
    out += ",\"attempts\":" + std::to_string(attempts);
    out += ",\"schedule_length\":" + std::to_string(scheduleLength);
    out += ",\"budget\":" + std::to_string(budget);
    out += ",\"steps_total\":" + std::to_string(stepsTotal);
    out += ",\"backtracks\":" + std::to_string(backtracks);
    out += ",\"scheduler\":";
    appendJsonString(out, scheduler);
    out += ",\"ii_strategy\":";
    appendJsonString(out, iiStrategy);
    out += ",\"ii_workers\":" + std::to_string(iiWorkers);
    out += ",\"ii_attempts_proven_infeasible\":" +
           std::to_string(iiAttemptsProvenInfeasible);
    out += ",\"ii_search_wall_seconds\":" +
           formatJsonDouble(iiSearchWallSeconds);
    out += ",\"wall_seconds\":" + formatJsonDouble(wallSeconds);
    out += ",\"phases\":[";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const auto& sample = phases[i];
        if (i > 0)
            out += ',';
        out += "{\"name\":\"";
        out += phaseName(sample.phase);
        out += "\",\"detail\":" + std::to_string(sample.detail);
        out += ",\"seconds\":" + formatJsonDouble(sample.seconds);
        out += ",\"ok\":" + std::string(sample.succeeded ? "true" : "false");
        out += '}';
    }
    out += "],\"counters\":{";
    for (std::size_t i = 0; i < kCounterFields.size(); ++i) {
        if (i > 0)
            out += ',';
        out += '"';
        out += kCounterFields[i].name;
        out += "\":" + std::to_string(counters.*kCounterFields[i].field);
    }
    out += "}}";
    return out;
}

TextTable
telemetryTable(const std::vector<PipelineTelemetry>& records)
{
    TextTable table("pipeline telemetry");
    table.addHeader({"loop", "ops", "MII", "II", "att", "steps", "backtr",
                     "graph ms", "mii ms", "sched ms", "codegen ms",
                     "regalloc ms", "total ms"});
    const auto ms = [](double seconds) {
        return formatDouble(seconds * 1e3, 3);
    };
    for (const auto& t : records) {
        table.addRow({t.loop, std::to_string(t.ops), std::to_string(t.mii),
                      std::to_string(t.ii), std::to_string(t.attempts),
                      std::to_string(t.stepsTotal),
                      std::to_string(t.backtracks),
                      ms(t.phaseSeconds(Phase::kGraphBuild)),
                      ms(t.phaseSeconds(Phase::kMiiBounds)),
                      ms(t.phaseSeconds(Phase::kIiAttempt) +
                         t.phaseSeconds(Phase::kListSchedule)),
                      ms(t.phaseSeconds(Phase::kCodegen) +
                         t.phaseSeconds(Phase::kLifetimes)),
                      ms(t.phaseSeconds(Phase::kRegAlloc)),
                      ms(t.wallSeconds)});
    }
    return table;
}

void
TelemetryRecorder::onPhase(const PhaseSample& sample)
{
    record_.phases.push_back(sample);
}

void
TelemetryRecorder::onCounters(const Counters& delta)
{
    record_.counters += delta;
}

} // namespace ims::support
