#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

#include "core/pipeliner.hpp"
#include "machine/cydra5.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;

core::PipelineResult
pipelineKernel(const std::string& name)
{
    core::SoftwarePipeliner pipeliner(machine::cydra5());
    const auto w = workloads::kernelByName(name);
    return pipeliner.pipeline(core::PipelineRequest(w.loop));
}

TEST(TelemetryTest, EveryPhaseReportedForAPipelinedLoop)
{
    const auto result = pipelineKernel("daxpy");
    ASSERT_TRUE(result.ok());
    const auto& t = result.telemetry;

    for (const auto phase :
         {support::Phase::kGraphBuild, support::Phase::kMiiBounds,
          support::Phase::kIiAttempt, support::Phase::kListSchedule,
          support::Phase::kCodegen, support::Phase::kLifetimes,
          support::Phase::kRegAlloc, support::Phase::kVerify}) {
        EXPECT_GE(t.phaseCalls(phase), 1) << support::phaseName(phase);
        EXPECT_GE(t.phaseSeconds(phase), 0.0);
    }

    // One II-attempt sample per candidate II; exactly the last succeeds.
    int attempt_samples = 0;
    int successful_attempts = 0;
    int last_detail = -1;
    for (const auto& sample : t.phases) {
        if (sample.phase != support::Phase::kIiAttempt)
            continue;
        ++attempt_samples;
        if (sample.succeeded) {
            ++successful_attempts;
            last_detail = sample.detail;
        }
    }
    EXPECT_EQ(attempt_samples, t.attempts);
    EXPECT_EQ(successful_attempts, 1);
    EXPECT_EQ(last_detail, t.ii);

    EXPECT_TRUE(t.succeeded);
    EXPECT_EQ(t.loop, "daxpy");
    EXPECT_GT(t.ops, 0);
    EXPECT_GE(t.ii, t.mii);
    EXPECT_GE(t.mii, t.resMii);
    EXPECT_GT(t.budget, 0);
    EXPECT_GT(t.stepsTotal, 0);
    EXPECT_GT(t.wallSeconds, 0.0);
    EXPECT_GT(t.counters.scheduleSteps, 0u);
    EXPECT_GT(t.counters.findTimeSlotProbes, 0u);
}

TEST(TelemetryTest, EveryPhaseAppearsInJson)
{
    const auto result = pipelineKernel("daxpy");
    const std::string json = result.telemetry.toJson();
    for (int i = 0; i < support::kNumPhases; ++i) {
        const auto phase = static_cast<support::Phase>(i);
        EXPECT_NE(json.find(std::string("\"") +
                            support::phaseName(phase) + "\""),
                  std::string::npos)
            << support::phaseName(phase);
    }
}

TEST(TelemetryTest, JsonPinsEveryFieldExactly)
{
    // One hand-built record against its full expected text: the escaper
    // (control bytes, quote, backslash), non-finite doubles (NaN is null,
    // infinities clamp to the largest finite double), %.17g timings,
    // 64-bit integers past 2^53, every phase name and every counter key.
    support::PipelineTelemetry t;
    t.loop = "\x01\x08\t\n\x0b\x0c\r\x1f\"q\\";
    t.ops = 7;
    t.succeeded = true;
    t.resMii = 2;
    t.mii = 3;
    t.ii = 4;
    t.attempts = 2;
    t.scheduleLength = 13;
    t.budget = 14;
    t.stepsTotal = std::numeric_limits<std::int64_t>::min();
    t.backtracks = 5;
    t.scheduler = "iterative";
    t.iiStrategy = "linear";
    t.iiWorkers = 1;
    t.iiAttemptsProvenInfeasible = 1;
    t.iiSearchWallSeconds = std::numeric_limits<double>::quiet_NaN();
    t.wallSeconds = -std::numeric_limits<double>::infinity();
    using support::Phase;
    t.phases = {
        {Phase::kGraphBuild, -1, 0.5, true},
        {Phase::kMiiBounds, -1, 0.1, true},
        {Phase::kIiAttempt, 3, std::numeric_limits<double>::infinity(),
         false},
        {Phase::kIiAttempt, 4, 2.0, true},
        {Phase::kListSchedule, -1, 0.0, true},
        {Phase::kCodegen, -1, 0.25, true},
        {Phase::kLifetimes, -1, std::numeric_limits<double>::quiet_NaN(),
         true},
        {Phase::kRegAlloc, -1, 3e-05, true},
        {Phase::kVerify, -1, 0.125, false},
    };
    t.counters.sccEdgeVisits = 1;
    t.counters.resMiiInspections = 2;
    t.counters.minDistInnerSteps = 3;
    t.counters.minDistInvocations = 4;
    t.counters.heightRInnerSteps = 5;
    t.counters.estartPredecessorVisits = 6;
    t.counters.estartIncrementalHits = 7;
    t.counters.findTimeSlotProbes = 8;
    t.counters.scheduleSteps = (std::uint64_t{1} << 53) + 1;
    t.counters.unscheduleSteps = 10;
    t.counters.mrtMaskProbes = 11;
    t.counters.mrtSlotScans = std::numeric_limits<std::uint64_t>::max();

    const std::string expected =
        R"({"schema":"ims.telemetry.v1",)"
        R"("loop":"\u0001\u0008\t\n\u000b\u000c\r\u001f\"q\\",)"
        R"("ops":7,"succeeded":true,"res_mii":2,"mii":3,"ii":4,)"
        R"("attempts":2,"schedule_length":13,"budget":14,)"
        R"("steps_total":-9223372036854775808,"backtracks":5,)"
        R"("scheduler":"iterative","ii_strategy":"linear",)"
        R"("ii_workers":1,"ii_attempts_proven_infeasible":1,)"
        R"("ii_search_wall_seconds":null,)"
        R"("wall_seconds":-1.7976931348623157e+308,"phases":[)"
        R"({"name":"graph_build","detail":-1,"seconds":0.5,"ok":true},)"
        R"({"name":"mii_bounds","detail":-1,)"
        R"("seconds":0.10000000000000001,"ok":true},)"
        R"({"name":"ii_attempt","detail":3,)"
        R"("seconds":1.7976931348623157e+308,"ok":false},)"
        R"({"name":"ii_attempt","detail":4,"seconds":2,"ok":true},)"
        R"({"name":"list_schedule","detail":-1,"seconds":0,"ok":true},)"
        R"({"name":"codegen","detail":-1,"seconds":0.25,"ok":true},)"
        R"({"name":"lifetimes","detail":-1,"seconds":null,"ok":true},)"
        R"({"name":"regalloc","detail":-1,)"
        R"("seconds":3.0000000000000001e-05,"ok":true},)"
        R"({"name":"verify","detail":-1,"seconds":0.125,"ok":false}],)"
        R"("counters":{"scc_edge_visits":1,"res_mii_inspections":2,)"
        R"("min_dist_inner_steps":3,"min_dist_invocations":4,)"
        R"("height_r_inner_steps":5,"estart_predecessor_visits":6,)"
        R"("estart_incremental_hits":7,"find_time_slot_probes":8,)"
        R"("schedule_steps":9007199254740993,"unschedule_steps":10,)"
        R"("mrt_mask_probes":11,"mrt_slot_scans":18446744073709551615}})";
    EXPECT_EQ(t.toJson(), expected);
}

TEST(TelemetryTest, OptionsLevelSinkReceivesEvents)
{
    support::TelemetryRecorder external;
    core::SoftwarePipeliner pipeliner(
        machine::cydra5(),
        core::PipelinerOptions{}.withTelemetry(&external));
    const auto w = workloads::kernelByName("daxpy");
    const auto result = pipeliner.pipeline(core::PipelineRequest(w.loop));
    ASSERT_TRUE(result.ok());

    EXPECT_EQ(external.record().phases.size(),
              result.telemetry.phases.size());
    EXPECT_EQ(external.record().counters.scheduleSteps,
              result.telemetry.counters.scheduleSteps);
    EXPECT_EQ(external.record().counters.findTimeSlotProbes,
              result.telemetry.counters.findTimeSlotProbes);
}

TEST(TelemetryTest, TableRendersOneRowPerRecord)
{
    const auto a = pipelineKernel("daxpy");
    const auto b = pipelineKernel("tridiag");
    const auto table =
        support::telemetryTable({a.telemetry, b.telemetry});
    std::ostringstream out;
    table.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("daxpy"), std::string::npos);
    EXPECT_NE(text.find("tridiag"), std::string::npos);
    EXPECT_NE(text.find("MII"), std::string::npos);
}

// Counters must be a pure function of the request: two runs of the same
// request through the request/result API (the only entry point now that the
// deprecated Counters* shim is gone) report identical counter totals.
TEST(TelemetryTest, RepeatedRequestsReportIdenticalCounters)
{
    const auto w = workloads::kernelByName("state_frag");
    core::SoftwarePipeliner pipeliner(machine::cydra5());

    const auto first = pipeliner.pipeline(core::PipelineRequest(w.loop));
    const auto second = pipeliner.pipeline(core::PipelineRequest(w.loop));
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(second.ok());

    EXPECT_EQ(first.telemetry.counters.scheduleSteps,
              second.telemetry.counters.scheduleSteps);
    EXPECT_EQ(first.telemetry.counters.unscheduleSteps,
              second.telemetry.counters.unscheduleSteps);
    EXPECT_EQ(first.telemetry.counters.findTimeSlotProbes,
              second.telemetry.counters.findTimeSlotProbes);
    EXPECT_EQ(first.telemetry.counters.minDistInnerSteps,
              second.telemetry.counters.minDistInnerSteps);
    EXPECT_GT(first.telemetry.counters.scheduleSteps, 0u);
}

} // namespace
