#ifndef IMS_PERFBENCH_REPLICA_HPP
#define IMS_PERFBENCH_REPLICA_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeliner.hpp"
#include "service/model_registry.hpp"
#include "service/schedule_cache.hpp"
#include "trace.hpp"

namespace perfbench {

/**
 * SoftwarePipeliner::pipeline() re-enacted call by call from outside the
 * library, with one span around each public call it makes:
 *
 *   core.pipeline
 *     graph.build  graph.scc  sched.schedule  sched.verify  sched.list
 *     mii.mindist  codegen.generate  codegen.lifetimes  codegen.regalloc
 *
 * The result carries the same telemetry fields pipeline() fills, so
 * service::fingerprintResult of the two must be equal; a difference means
 * the replica has drifted from the library. Failures come back as a
 * result without artifacts.
 */
ims::core::PipelineResult
tracedPipeline(const ims::core::SoftwarePipeliner& pipeliner,
               const ims::ir::Loop& loop, Tracer& tracer,
               std::uint64_t request, std::uint64_t parent);

/** Span names of the layers tracedPipeline() calls, in call order. */
const std::vector<std::string>& pipelineLayerSpans();

/**
 * Per-layer metrics of the pipeline() replica: `<span>_ms` (mean time of
 * one call) for every layer span, core.pipeline_ms, and mii.bounds_ms
 * from the library's own mii_bounds phase samples (`bounds_seconds` summed
 * over `replica_calls` results).
 */
void addPipelineSpanMetrics(Outcome& outcome, const Tracer& tracer,
                            double bounds_seconds,
                            std::uint64_t replica_calls);

/** Deterministic work counts summed over a set of pipeline() results. */
struct LayerCounts
{
    std::uint64_t attempts = 0;
    std::uint64_t steps = 0;
    std::uint64_t wastedSteps = 0;
    std::uint64_t unschedules = 0;
    std::uint64_t minDistSteps = 0;
    std::uint64_t edges = 0;
    std::uint64_t ops = 0;

    void add(const ims::core::PipelineResult& result);
    /** sched.attempts, sched.steps, sched.unschedules,
     *  sched.wasted_steps_share, mii.mindist_inner_steps and
     *  graph.edges_per_op. */
    void addMetrics(Outcome& outcome) const;
};

/** The `result` line ims-serve prints for a processed request. */
std::string serveResultLine(const ims::ir::Loop& loop,
                            const ims::machine::MachineModel& machine,
                            const ims::core::PipelineResult& result);

/** The state ScheduleService::handle() works on, for the traced replica. */
struct ServeReplica
{
    explicit ServeReplica(ims::service::CacheOptions cache_options)
        : cache(cache_options)
    {
    }

    ims::service::ModelRegistry registry;
    ims::service::ScheduleCache cache;
    ims::core::PipelinerOptions defaults;
};

/** What one replayed request produced. */
struct ServeAnswer
{
    std::string line;
    bool hit = false;
    /** The cached or freshly computed result (null on a request error). */
    std::shared_ptr<const ims::core::PipelineResult> result;
};

/** Span names directly under `service.request`, in call order. */
const std::vector<std::string>& serviceLayerSpans();

/**
 * ScheduleService::handle() plus ims-serve's result-line rendering,
 * re-enacted with one span per public call under a `service.request`
 * root: service.registry, ir.parse, ir.print, service.options,
 * service.key, service.lookup, then on a miss core.construct,
 * core.pipeline (with the children above) and service.insert, and last
 * service.fingerprint.
 */
ServeAnswer tracedServe(ServeReplica& replica, const std::string& machine,
                        const std::string& loop_text, Tracer& tracer,
                        std::uint64_t request);

} // namespace perfbench

#endif // IMS_PERFBENCH_REPLICA_HPP
