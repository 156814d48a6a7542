#include "replica.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "graph/scc.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "mii/min_dist.hpp"
#include "sched/verifier.hpp"
#include "service/options_codec.hpp"
#include "support/error.hpp"

namespace perfbench {

using namespace ims;

namespace {

/** Run `body` inside a span named `name`; returns what `body` returns. */
template <typename Body>
auto
traced(Tracer& tracer, const char* name, std::uint64_t request,
       std::uint64_t parent, Body&& body)
{
    const ScopedSpan span(tracer, name, request, parent);
    return body();
}

} // namespace

core::PipelineResult
tracedPipeline(const core::SoftwarePipeliner& pipeliner, const ir::Loop& loop,
               Tracer& tracer, std::uint64_t request, std::uint64_t parent)
{
    const ScopedSpan root(tracer, "core.pipeline", request, parent);
    const std::uint64_t id = root.id();
    const machine::MachineModel& machine = pipeliner.machine();
    core::PipelinerOptions options = pipeliner.options();

    core::PipelineResult result;
    support::TelemetryRecorder recorder;
    support::TeeSink sink(&recorder, options.telemetry);
    support::Counters counters;
    options.schedule.telemetry = &sink;
    result.telemetry.loop = loop.name();
    result.telemetry.ops = loop.size();

    const auto start = Clock::now();
    try {
        graph::DepGraph dep_graph = traced(tracer, "graph.build", request, id,
                                           [&] {
                                               return graph::buildDepGraph(
                                                   loop, machine,
                                                   options.graph, &sink);
                                           });
        const graph::SccResult sccs =
            traced(tracer, "graph.scc", request, id,
                   [&] { return graph::findSccs(dep_graph, &counters); });
        sched::ModuloScheduleOutcome outcome =
            traced(tracer, "sched.schedule", request, id, [&] {
                return sched::schedule(loop, machine, dep_graph, sccs,
                                       options.schedule, &counters);
            });

        auto& telemetry = result.telemetry;
        telemetry.resMii = outcome.resMii;
        telemetry.mii = outcome.mii;
        telemetry.ii = outcome.schedule.ii;
        telemetry.attempts = outcome.attempts;
        telemetry.scheduleLength = outcome.schedule.scheduleLength;
        telemetry.budget = outcome.budget;
        telemetry.stepsTotal = outcome.totalSteps;
        telemetry.backtracks = outcome.totalUnschedules;
        telemetry.scheduler = outcome.scheduler;
        telemetry.iiStrategy = outcome.search.strategy;
        telemetry.iiWorkers = outcome.search.workers;

        if (options.verify) {
            const bool clean = traced(tracer, "sched.verify", request, id, [&] {
                const support::PhaseTimer timer(&sink,
                                                support::Phase::kVerify);
                return sched::verifySchedule(loop, machine, dep_graph,
                                             outcome.schedule)
                    .empty();
            });
            if (!clean)
                throw support::Error("schedule verification failed");
        }

        sched::ListScheduleResult list_schedule =
            traced(tracer, "sched.list", request, id, [&] {
                return sched::listSchedule(loop, machine, dep_graph,
                                           &counters, &sink);
            });
        const int critical_path =
            traced(tracer, "mii.mindist", request, id, [&] {
                const mii::MinDistMatrix dist(dep_graph, outcome.schedule.ii,
                                              &counters);
                return static_cast<int>(
                    dist.atVertex(dep_graph.start(), dep_graph.stop()));
            });

        core::PipelineArtifacts artifacts{
            std::move(dep_graph), std::move(outcome), std::move(list_schedule),
            0, {}, {}, {},
        };
        artifacts.minScheduleLength =
            std::max(critical_path, artifacts.listSchedule.scheduleLength);

        const sched::ScheduleResult& schedule = artifacts.outcome.schedule;
        artifacts.code = traced(tracer, "codegen.generate", request, id, [&] {
            return codegen::generateCode(loop, machine, schedule, &sink);
        });
        artifacts.lifetimes =
            traced(tracer, "codegen.lifetimes", request, id, [&] {
                return codegen::analyzeLifetimes(loop, machine, schedule,
                                                 &sink);
            });
        artifacts.registers =
            traced(tracer, "codegen.regalloc", request, id, [&] {
                return codegen::allocateRegisters(
                    loop, artifacts.lifetimes, artifacts.code.mve, &sink);
            });

        result.artifacts = std::move(artifacts);
        result.telemetry.succeeded = true;
    } catch (const std::exception& error) {
        result.diagnostics.push_back({core::Diagnostic::Severity::kError,
                                      "replica", error.what(),
                                      "perfbench.replica_failed"});
    }

    sink.onCounters(counters);
    result.telemetry.wallSeconds = secondsSince(start);
    result.telemetry.phases = std::move(recorder.record().phases);
    result.telemetry.counters = recorder.record().counters;
    return result;
}

const std::vector<std::string>&
pipelineLayerSpans()
{
    static const std::vector<std::string> names = {
        "graph.build", "graph.scc",        "sched.schedule",
        "sched.verify", "sched.list",      "mii.mindist",
        "codegen.generate", "codegen.lifetimes", "codegen.regalloc"};
    return names;
}

void
addPipelineSpanMetrics(Outcome& outcome, const Tracer& tracer,
                       double bounds_seconds, std::uint64_t replica_calls)
{
    for (const std::string& name : pipelineLayerSpans())
        outcome.metrics[name + "_ms"] = {tracer.meanMs(name), "ms"};
    outcome.metrics["core.pipeline_ms"] = {tracer.meanMs("core.pipeline"),
                                           "ms"};
    outcome.metrics["mii.bounds_ms"] = {
        replica_calls == 0 ? 0.0
                           : bounds_seconds * 1e3 /
                                 static_cast<double>(replica_calls),
        "ms"};
}

void
LayerCounts::add(const core::PipelineResult& result)
{
    const auto& telemetry = result.telemetry;
    attempts += static_cast<std::uint64_t>(telemetry.attempts);
    steps += static_cast<std::uint64_t>(telemetry.stepsTotal);
    unschedules += static_cast<std::uint64_t>(telemetry.backtracks);
    minDistSteps += telemetry.counters.minDistInnerSteps;
    if (result.ok()) {
        const auto& artifacts = *result.artifacts;
        wastedSteps += static_cast<std::uint64_t>(
            telemetry.stepsTotal - artifacts.outcome.schedule.stepsUsed);
        edges += static_cast<std::uint64_t>(artifacts.depGraph.numEdges());
        ops += static_cast<std::uint64_t>(telemetry.ops);
    }
}

void
LayerCounts::addMetrics(Outcome& outcome) const
{
    const auto count = [](std::uint64_t value) {
        return Metric{static_cast<double>(value), "count"};
    };
    outcome.metrics["sched.attempts"] = count(attempts);
    outcome.metrics["sched.steps"] = count(steps);
    outcome.metrics["sched.unschedules"] = count(unschedules);
    outcome.metrics["mii.mindist_inner_steps"] = count(minDistSteps);
    outcome.metrics["sched.wasted_steps_share"] = {
        steps == 0 ? 0.0
                   : static_cast<double>(wastedSteps) /
                         static_cast<double>(steps),
        "share"};
    outcome.metrics["graph.edges_per_op"] = {
        ops == 0 ? 0.0
                 : static_cast<double>(edges) / static_cast<double>(ops),
        "ratio"};
}

std::string
serveResultLine(const ir::Loop& loop, const machine::MachineModel& machine,
                const core::PipelineResult& result)
{
    std::ostringstream out;
    out << "result " << loop.name();
    if (result.ok()) {
        const auto& artifacts = *result.artifacts;
        out << " ok ii=" << artifacts.outcome.schedule.ii
            << " mii=" << artifacts.outcome.mii
            << " length=" << artifacts.outcome.schedule.scheduleLength;
    } else {
        std::string code = "error.unknown";
        for (const auto& diagnostic : result.diagnostics)
            if (diagnostic.severity == core::Diagnostic::Severity::kError) {
                code = diagnostic.code;
                break;
            }
        out << " failed code=" << code;
    }
    out << " fingerprint=" << std::hex
        << service::fingerprintResult(loop, machine, result);
    return out.str();
}

const std::vector<std::string>&
serviceLayerSpans()
{
    static const std::vector<std::string> names = {
        "service.registry", "ir.parse",       "ir.print",
        "service.options",  "service.key",    "service.lookup",
        "core.construct",   "core.pipeline",  "service.insert",
        "service.fingerprint"};
    return names;
}

ServeAnswer
tracedServe(ServeReplica& replica, const std::string& machine,
            const std::string& loop_text, Tracer& tracer,
            std::uint64_t request)
{
    const ScopedSpan root(tracer, "service.request", request, 0);
    const std::uint64_t id = root.id();
    ServeAnswer answer;

    const auto model = traced(tracer, "service.registry", request, id,
                              [&] { return replica.registry.lookup(machine); });
    if (!model) {
        answer.line = "error service.unknown_machine";
        return answer;
    }

    std::shared_ptr<const ir::Loop> loop;
    std::string canonical_loop;
    try {
        loop = traced(tracer, "ir.parse", request, id, [&] {
            return std::make_shared<const ir::Loop>(ir::parseLoop(loop_text));
        });
        canonical_loop = traced(tracer, "ir.print", request, id,
                                [&] { return ir::printLoop(*loop); });
    } catch (const support::Error& error) {
        answer.line = std::string("error service.bad_loop ") + error.what();
        return answer;
    }

    const core::PipelinerOptions& effective = replica.defaults;
    std::string options_text =
        traced(tracer, "service.options", request, id,
               [&] { return service::canonicalOptionsText(effective); });
    const service::CacheKey key =
        traced(tracer, "service.key", request, id, [&] {
            return service::CacheKey::make(std::move(canonical_loop),
                                           model->canonicalText,
                                           std::move(options_text));
        });

    answer.result = traced(tracer, "service.lookup", request, id,
                           [&] { return replica.cache.lookup(key); });
    answer.hit = answer.result != nullptr;
    if (!answer.hit) {
        const auto pipeliner =
            traced(tracer, "core.construct", request, id, [&] {
                return std::make_unique<const core::SoftwarePipeliner>(
                    model->model, effective);
            });
        core::PipelineResult fresh =
            tracedPipeline(*pipeliner, *loop, tracer, request, id);
        answer.result = traced(tracer, "service.insert", request, id, [&] {
            return replica.cache.insert(key, std::move(fresh));
        });
    }
    answer.line = traced(tracer, "service.fingerprint", request, id, [&] {
        return serveResultLine(*loop, model->model, *answer.result);
    });
    return answer;
}

} // namespace perfbench
