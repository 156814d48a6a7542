#ifndef IMS_SUPPORT_TELEMETRY_HPP
#define IMS_SUPPORT_TELEMETRY_HPP

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "support/counters.hpp"

namespace ims::support {

class TextTable;

/**
 * The phases of one end-to-end pipelining run. Every phase is reported as
 * a timed PhaseSample by the layer that executes it (graph/, mii/, sched/,
 * codegen/, and the core pipeliner for verification), so a TelemetrySink
 * sees the whole run without the caller stitching timers together.
 */
enum class Phase
{
    kGraphBuild,
    kMiiBounds,
    kIiAttempt,
    kListSchedule,
    kCodegen,
    kLifetimes,
    kRegAlloc,
    kVerify,
};

inline constexpr int kNumPhases = 8;

/** Stable lowercase identifier, e.g. "graph_build" (used in JSON). */
const char* phaseName(Phase phase);

/** One timed phase execution. */
struct PhaseSample
{
    Phase phase = Phase::kGraphBuild;
    /** Phase-specific detail: the candidate II for kIiAttempt, else -1. */
    int detail = -1;
    /** Wall time of the phase. */
    double seconds = 0.0;
    /** False for failed II attempts (budget exhausted / infeasible). */
    bool succeeded = true;
};

/**
 * Receiver for pipelining telemetry. The library reports through this
 * interface only; what happens to the events (accumulation, streaming,
 * export) is the sink's business.
 *
 * The sink in PipelinerOptions::telemetry sees every loop run under
 * those options; BatchPipeliner and ScheduleService call it from worker
 * threads, so there it must be thread-safe. The per-loop
 * recorders the library creates internally are never shared.
 */
class TelemetrySink
{
  public:
    virtual ~TelemetrySink() = default;

    /** A phase finished (reported by PhaseTimer on scope exit). */
    virtual void onPhase(const PhaseSample& sample) = 0;

    /**
     * Monotonic counter increments, unified with support::Counters: the
     * same struct the low-level algorithms fill via their Counters*
     * out-params is delivered here as a delta at the end of a run.
     */
    virtual void onCounters(const Counters& delta) = 0;
};

/**
 * RAII phase timer: starts a steady clock on construction and reports a
 * PhaseSample to the sink on destruction. A null sink makes it a no-op, so
 * instrumented code needs no branching.
 */
class PhaseTimer
{
  public:
    PhaseTimer(TelemetrySink* sink, Phase phase, int detail = -1);
    ~PhaseTimer();

    PhaseTimer(const PhaseTimer&) = delete;
    PhaseTimer& operator=(const PhaseTimer&) = delete;

  private:
    TelemetrySink* sink_;
    PhaseSample sample_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Structured record of one pipelining run: the paper-level outcome
 * (achieved II vs its MII lower bound, attempts, budget consumption,
 * displacement counts) plus wall time per phase and the unified
 * instrumentation counters. Exportable as JSON (`toJson`) for downstream
 * consumers; `telemetryTable` renders a fleet of records as a
 * support::TextTable.
 */
struct PipelineTelemetry
{
    /** Loop name. */
    std::string loop;
    /** Real operations in the loop body. */
    int ops = 0;
    /** True when a verified schedule (and artifacts) was produced. */
    bool succeeded = false;
    /** Resource-constrained lower bound. */
    int resMii = 0;
    /** MII = max(ResMII, RecMII). */
    int mii = 0;
    /** Achieved initiation interval (0 when the run failed early). */
    int ii = 0;
    /** Candidate IIs attempted. */
    int attempts = 0;
    /** Schedule length of one iteration. */
    int scheduleLength = 0;
    /** Per-attempt operation-scheduling-step budget (Figure 2). */
    std::int64_t budget = 0;
    /** Scheduling steps over all attempts, failed ones included. */
    std::int64_t stepsTotal = 0;
    /** Operations displaced (backtracking; Figure 5's unschedules). */
    std::int64_t backtracks = 0;
    /** Scheduling backend the run used ("iterative", "slack", "exact";
     *  "" when the run failed before scheduling). */
    std::string scheduler;
    /** II-search strategy the run used (always "linear"; "" when the
     *  run failed before scheduling). */
    std::string iiStrategy;
    /** Workers the II search ran with (always 1: the walk is
     *  sequential; 0 when the run failed before scheduling). */
    int iiWorkers = 0;
    /** Attempts that PROVED no schedule exists at their II (exact
     *  backend, or a heuristic backend with an unplaceable operation;
     *  budget exhaustions are not proofs). Stable across runs. */
    int iiAttemptsProvenInfeasible = 0;
    /** Wall-clock time of the II search. */
    double iiSearchWallSeconds = 0.0;
    /** End-to-end wall time of the run. */
    double wallSeconds = 0.0;
    /** Every reported phase, in execution order. */
    std::vector<PhaseSample> phases;
    /** Unified instrumentation counters (support::Counters). */
    Counters counters;

    /** Total wall time of all samples of `phase`. */
    double phaseSeconds(Phase phase) const;
    /** Number of samples of `phase`. */
    int phaseCalls(Phase phase) const;

    /** Export as a single JSON object (schema: docs/api.md). */
    std::string toJson() const;
};

/**
 * The library's one JSON string escaper: append `text` to `out` as a
 * quoted JSON string. `"` and `\` are backslash-escaped, newline,
 * carriage return and tab use their short escapes, every other byte
 * below 0x20 becomes \u00XX, and all other bytes are copied as is.
 */
void appendJsonString(std::string& out, std::string_view text);

/** `text` as a quoted JSON string (see appendJsonString). */
std::string jsonString(std::string_view text);

/** Render one row per record (II vs MII, attempts, phase times). */
TextTable telemetryTable(const std::vector<PipelineTelemetry>& records);

/**
 * The standard sink: accumulates phase samples and counter deltas into a
 * PipelineTelemetry record. Not thread-safe; use one per concurrent run.
 */
class TelemetryRecorder final : public TelemetrySink
{
  public:
    void onPhase(const PhaseSample& sample) override;
    void onCounters(const Counters& delta) override;

    PipelineTelemetry& record() { return record_; }
    const PipelineTelemetry& record() const { return record_; }

  private:
    PipelineTelemetry record_;
};

/**
 * Fan-out sink: forwards every event to up to two downstream sinks (either
 * may be null). Lets the pipeliner keep its internal recorder while the
 * caller observes the same stream.
 */
class TeeSink final : public TelemetrySink
{
  public:
    TeeSink(TelemetrySink* first, TelemetrySink* second)
        : first_(first), second_(second)
    {
    }

    void
    onPhase(const PhaseSample& sample) override
    {
        if (first_ != nullptr)
            first_->onPhase(sample);
        if (second_ != nullptr)
            second_->onPhase(sample);
    }

    void
    onCounters(const Counters& delta) override
    {
        if (first_ != nullptr)
            first_->onCounters(delta);
        if (second_ != nullptr)
            second_->onCounters(delta);
    }

  private:
    TelemetrySink* first_;
    TelemetrySink* second_;
};

} // namespace ims::support

#endif // IMS_SUPPORT_TELEMETRY_HPP
