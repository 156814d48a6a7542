#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "core/pipeliner.hpp"
#include "machine/cydra5.hpp"
#include "support/error.hpp"
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

TEST(TelemetryTest, PhaseNamesRoundTrip)
{
    for (int i = 0; i < support::kNumPhases; ++i) {
        const auto phase = static_cast<support::Phase>(i);
        const auto back = support::phaseByName(support::phaseName(phase));
        ASSERT_TRUE(back.has_value()) << support::phaseName(phase);
        EXPECT_EQ(*back, phase);
    }
    EXPECT_FALSE(support::phaseByName("no_such_phase").has_value());
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

TEST(TelemetryTest, JsonRoundTripPreservesCountersAndSummary)
{
    const auto result = pipelineKernel("tridiag");
    ASSERT_TRUE(result.ok());
    const auto& original = result.telemetry;

    const auto reparsed = support::parseTelemetryJson(original.toJson());

    EXPECT_EQ(reparsed.loop, original.loop);
    EXPECT_EQ(reparsed.ops, original.ops);
    EXPECT_EQ(reparsed.succeeded, original.succeeded);
    EXPECT_EQ(reparsed.resMii, original.resMii);
    EXPECT_EQ(reparsed.mii, original.mii);
    EXPECT_EQ(reparsed.ii, original.ii);
    EXPECT_EQ(reparsed.attempts, original.attempts);
    EXPECT_EQ(reparsed.scheduleLength, original.scheduleLength);
    EXPECT_EQ(reparsed.budget, original.budget);
    EXPECT_EQ(reparsed.stepsTotal, original.stepsTotal);
    EXPECT_EQ(reparsed.backtracks, original.backtracks);
    EXPECT_DOUBLE_EQ(reparsed.wallSeconds, original.wallSeconds);

    // Counters: every field must survive the round trip exactly.
    EXPECT_EQ(reparsed.counters.sccEdgeVisits,
              original.counters.sccEdgeVisits);
    EXPECT_EQ(reparsed.counters.resMiiInspections,
              original.counters.resMiiInspections);
    EXPECT_EQ(reparsed.counters.minDistInnerSteps,
              original.counters.minDistInnerSteps);
    EXPECT_EQ(reparsed.counters.minDistInvocations,
              original.counters.minDistInvocations);
    EXPECT_EQ(reparsed.counters.heightRInnerSteps,
              original.counters.heightRInnerSteps);
    EXPECT_EQ(reparsed.counters.estartPredecessorVisits,
              original.counters.estartPredecessorVisits);
    EXPECT_EQ(reparsed.counters.findTimeSlotProbes,
              original.counters.findTimeSlotProbes);
    EXPECT_EQ(reparsed.counters.scheduleSteps,
              original.counters.scheduleSteps);
    EXPECT_EQ(reparsed.counters.unscheduleSteps,
              original.counters.unscheduleSteps);

    ASSERT_EQ(reparsed.phases.size(), original.phases.size());
    for (std::size_t i = 0; i < original.phases.size(); ++i) {
        EXPECT_EQ(reparsed.phases[i].phase, original.phases[i].phase);
        EXPECT_EQ(reparsed.phases[i].detail, original.phases[i].detail);
        EXPECT_DOUBLE_EQ(reparsed.phases[i].seconds,
                         original.phases[i].seconds);
        EXPECT_EQ(reparsed.phases[i].succeeded,
                  original.phases[i].succeeded);
    }
}

TEST(TelemetryTest, NonFiniteDoublesProduceValidJson)
{
    // A crashed phase timer or a degenerate summary must never leak a
    // bare `nan`/`inf` token into the JSON stream (neither is a JSON
    // literal): NaN becomes null, infinities clamp to the largest
    // finite double of the same sign, and the result stays parseable.
    auto result = pipelineKernel("daxpy");
    ASSERT_TRUE(result.ok());
    auto telemetry = result.telemetry;
    telemetry.wallSeconds = std::numeric_limits<double>::quiet_NaN();
    ASSERT_FALSE(telemetry.phases.empty());
    telemetry.phases[0].seconds = std::numeric_limits<double>::infinity();

    const std::string json = telemetry.toJson();
    // Bare non-finite tokens appear right after a ':' separator; field
    // names like "...proven_infeasible" legitimately contain "inf".
    EXPECT_EQ(json.find(":nan"), std::string::npos) << json;
    EXPECT_EQ(json.find(":inf"), std::string::npos) << json;
    EXPECT_EQ(json.find(":-inf"), std::string::npos) << json;

    const auto reparsed = support::parseTelemetryJson(json);
    EXPECT_TRUE(std::isnan(reparsed.wallSeconds));
    EXPECT_EQ(reparsed.phases[0].seconds,
              std::numeric_limits<double>::max());
}

TEST(TelemetryTest, LoopNameWithControlBytesRoundTrips)
{
    // Every byte the escaper writes as an escape: 0x01-0x1f (short
    // escapes and \u00XX), the quote and the backslash.
    support::PipelineTelemetry telemetry;
    for (int c = 0x01; c < 0x20; ++c)
        telemetry.loop += static_cast<char>(c);
    telemetry.loop += "\"q\\";
    const std::string json = telemetry.toJson();
    for (const char c : json)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
    EXPECT_EQ(support::parseTelemetryJson(json).loop, telemetry.loop);
}

TEST(TelemetryTest, ParserRejectsMalformedInput)
{
    EXPECT_THROW(support::parseTelemetryJson(""), support::Error);
    EXPECT_THROW(support::parseTelemetryJson("{"), support::Error);
    EXPECT_THROW(support::parseTelemetryJson("{\"loop\":}"),
                 support::Error);
    EXPECT_THROW(support::parseTelemetryJson(
                     "{\"schema\":\"ims.telemetry.v99\"}"),
                 support::Error);
    // Integer fields take exact integers in range: no fraction, no
    // exponent, no wrap-around and no negative counter.
    for (const char* bad : {
             "{\"ii\":1e300}",
             "{\"ii\":2.5}",
             "{\"ii\":null}",
             "{\"attempts\":3000000000}",
             "{\"attempts\":3e9}",
             "{\"budget\":9223372036854775808}",
             "{\"phases\":[{\"name\":\"verify\",\"detail\":1.5}]}",
             "{\"counters\":{\"schedule_steps\":-1}}",
             "{\"counters\":{\"schedule_steps\":18446744073709551616}}",
         }) {
        EXPECT_THROW(support::parseTelemetryJson(bad), support::Error)
            << bad;
    }
    // Unknown keys are skipped for forward compatibility, and so is the
    // ii_skipped key that records of the removed feedback search carry.
    const auto t = support::parseTelemetryJson(
        "{\"schema\":\"ims.telemetry.v1\",\"future_field\":[1,{\"a\":2}],"
        "\"loop\":\"x\",\"ii\":3,\"ii_skipped\":4}");
    EXPECT_EQ(t.loop, "x");
    EXPECT_EQ(t.ii, 3);
}

TEST(TelemetryTest, CountersAbove2To53RoundTripExactly)
{
    // A double holds integers exactly only up to 2^53; counters are
    // 64-bit and must not be rounded through one.
    support::PipelineTelemetry telemetry;
    telemetry.counters.scheduleSteps = (std::uint64_t{1} << 53) + 1;
    telemetry.counters.mrtSlotScans =
        std::numeric_limits<std::uint64_t>::max();
    telemetry.stepsTotal = std::numeric_limits<std::int64_t>::min();
    const auto reparsed = support::parseTelemetryJson(telemetry.toJson());
    EXPECT_EQ(reparsed.counters.scheduleSteps, (std::uint64_t{1} << 53) + 1);
    EXPECT_EQ(reparsed.counters.mrtSlotScans,
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(reparsed.stepsTotal, std::numeric_limits<std::int64_t>::min());
}

TEST(TelemetryTest, ExternalSinkSeesTheSameStream)
{
    support::TelemetryRecorder external;
    core::SoftwarePipeliner pipeliner(machine::cydra5());
    const auto w = workloads::kernelByName("daxpy");
    const auto result = pipeliner.pipeline(
        core::PipelineRequest(w.loop).withTelemetry(&external));
    ASSERT_TRUE(result.ok());

    EXPECT_EQ(external.record().phases.size(),
              result.telemetry.phases.size());
    EXPECT_EQ(external.record().counters.scheduleSteps,
              result.telemetry.counters.scheduleSteps);
    EXPECT_EQ(external.record().counters.findTimeSlotProbes,
              result.telemetry.counters.findTimeSlotProbes);
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
