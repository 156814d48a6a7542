#include <gtest/gtest.h>

#include "core/pipeliner.hpp"
#include "core/report.hpp"
#include "graph/graph_builder.hpp"
#include "support/error.hpp"
#include "ir/parser.hpp"
#include "machine/cydra5.hpp"
#include "machine/machine_io.hpp"
#include "machine/machines.hpp"
#include "sched/list_scheduler.hpp"
#include "sim/memory.hpp"
#include "workloads/kernels.hpp"

namespace {

using namespace ims;

TEST(PipelinerTest, EndToEndDaxpy)
{
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    const auto w = workloads::kernelByName("daxpy");
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();

    EXPECT_EQ(artifacts.outcome.schedule.ii, 2);
    EXPECT_GE(artifacts.outcome.schedule.scheduleLength,
              artifacts.minScheduleLength);
    EXPECT_GE(artifacts.listSchedule.scheduleLength,
              artifacts.outcome.schedule.ii);
    EXPECT_GE(artifacts.code.kernel.stageCount, 1);
    EXPECT_GE(artifacts.registers.rotatingRegisters, 1);
}

TEST(PipelinerTest, WorksOnParsedMiniIr)
{
    const char* text = R"(
loop from_text
livein a
recurrence ax
ax = aadd ax[3], #24
x = load ax @ X 0
t = mul a, x
_ = store ax, t @ Y 0
recurrence n
n = asub n[3], #3
_ = branch n
)";
    const auto loop = ir::parseLoop(text);
    core::SoftwarePipeliner pipeliner(machine::cydra5());
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(loop)).artifactsOrThrow();
    EXPECT_EQ(artifacts.outcome.schedule.ii, artifacts.outcome.mii);
}

TEST(PipelinerTest, ReportContainsKeyFacts)
{
    const auto machine = machine::cydra5();
    core::SoftwarePipeliner pipeliner(machine);
    const auto w = workloads::kernelByName("tridiag");
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    const std::string text = core::report(w.loop, machine, artifacts);
    EXPECT_NE(text.find("MII = 9"), std::string::npos);
    EXPECT_NE(text.find("achieved II = 9"), std::string::npos);
    EXPECT_NE(text.find("kernel"), std::string::npos);
    EXPECT_NE(text.find("speedup"), std::string::npos);

    const std::string line = core::summaryLine(w.loop, artifacts);
    EXPECT_NE(line.find("tridiag"), std::string::npos);
    EXPECT_NE(line.find("II=9"), std::string::npos);
}

TEST(PipelinerTest, ConservativeDelayModeStillPipelines)
{
    core::PipelinerOptions options;
    options.graph.delayMode = graph::DelayMode::kConservative;
    core::SoftwarePipeliner pipeliner(machine::cydra5(), options);
    const auto w = workloads::kernelByName("daxpy");
    const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
    EXPECT_GE(artifacts.outcome.schedule.ii, artifacts.outcome.mii);
}

// The request/result API is now the only entry point (the deprecated
// Counters* shim was removed); the telemetry record must carry the same
// cross-phase counter aggregation the shim used to expose.
TEST(PipelinerTest, RequestApiCountersAggregateAcrossPhases)
{
    core::SoftwarePipeliner pipeliner(machine::cydra5());
    const auto w = workloads::kernelByName("state_frag");
    const auto result = pipeliner.pipeline(core::PipelineRequest(w.loop));
    const auto& artifacts = result.artifactsOrThrow();
    EXPECT_GE(artifacts.outcome.schedule.ii, artifacts.outcome.mii);
    const auto& counters = result.telemetry.counters;
    EXPECT_GT(counters.resMiiInspections, 0u);
    EXPECT_GT(counters.minDistInvocations, 0u);
    EXPECT_GT(counters.heightRInnerSteps, 0u);
    EXPECT_GT(counters.estartPredecessorVisits, 0u);
    EXPECT_GT(counters.findTimeSlotProbes, 0u);
    EXPECT_GT(counters.scheduleSteps, 0u);
}

TEST(PipelinerTest, RequestResultReportsDiagnosticsInsteadOfThrowing)
{
    const auto w = workloads::kernelByName("daxpy");
    // Non-DSA mode rejects the distance>1 operands daxpy's
    // back-substituted counter uses.
    core::SoftwarePipeliner pipeliner(
        machine::cydra5(), core::PipelinerOptions{}.withDsaForm(false));

    const auto result = pipeliner.pipeline(core::PipelineRequest(w.loop));
    EXPECT_FALSE(result.ok());
    ASSERT_EQ(result.diagnostics.size(), 1u);
    EXPECT_EQ(result.diagnostics[0].severity,
              core::Diagnostic::Severity::kError);
    EXPECT_EQ(result.diagnostics[0].phase, "graph_build");
    EXPECT_FALSE(result.firstError().empty());
    EXPECT_THROW(result.artifactsOrThrow(), support::Error);
    // The failed run still carries its identity in the telemetry record.
    EXPECT_EQ(result.telemetry.loop, w.loop.name());
    EXPECT_FALSE(result.telemetry.succeeded);
}

TEST(PipelinerTest, BuilderStyleOptionSettersCompose)
{
    const auto options = core::PipelinerOptions{}
                             .withBudgetRatio(6.0)
                             .withPriority(sched::PriorityScheme::kSlack)
                             .withVerification(false)
                             .withMaxIiIncrease(128)
                             .withForwardProgressRule(false)
                             .withDelayMode(graph::DelayMode::kConservative)
                             .withRandomSeed(42);
    EXPECT_EQ(options.schedule.search.budgetRatio, 6.0);
    EXPECT_EQ(options.schedule.priority, sched::PriorityScheme::kSlack);
    EXPECT_FALSE(options.verify);
    EXPECT_EQ(options.schedule.search.maxIiIncrease, 128);
    EXPECT_FALSE(options.schedule.forwardProgressRule);
    EXPECT_EQ(options.graph.delayMode, graph::DelayMode::kConservative);
    EXPECT_EQ(options.schedule.randomSeed, 42u);

    const auto w = workloads::kernelByName("daxpy");
    core::SoftwarePipeliner pipeliner(machine::cydra5(), options);
    const auto result = pipeliner.pipeline(core::PipelineRequest(w.loop));
    EXPECT_TRUE(result.ok());
}

TEST(PipelinerTest, WithIiSearchReplacesTheBudgetKnobs)
{
    const auto options = core::PipelinerOptions{}.withIiSearch(
        sched::IiSearchOptions{}.withBudgetRatio(3.0).withMaxIiIncrease(
            128));
    EXPECT_EQ(options.schedule.search.budgetRatio, 3.0);
    EXPECT_EQ(options.schedule.search.maxIiIncrease, 128);

    const auto w = workloads::kernelByName("daxpy");
    core::SoftwarePipeliner pipeliner(machine::cydra5(), options);
    const auto result = pipeliner.pipeline(core::PipelineRequest(w.loop));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.telemetry.iiStrategy, "linear");
    EXPECT_EQ(result.telemetry.iiWorkers, 1);
}

TEST(PipelinerTest, IiExhaustionSurfacesStructuredDiagnosticCode)
{
    const auto w = workloads::kernelByName("daxpy");
    // A zero II-increase window above an unreachable MII cannot succeed.
    core::SoftwarePipeliner pipeliner(
        machine::cydra5(),
        core::PipelinerOptions{}.withIiSearch(
            sched::IiSearchOptions{}.withMaxIiIncrease(0).withBudgetRatio(
                0.001)));
    const auto result = pipeliner.pipeline(core::PipelineRequest(w.loop));
    ASSERT_FALSE(result.ok());
    ASSERT_FALSE(result.diagnostics.empty());
    EXPECT_EQ(result.diagnostics[0].code, "sched.ii_exhausted");
    EXPECT_NE(result.firstError().find("daxpy"), std::string::npos);
}

/**
 * A registered machine whose one opcode takes 2e9 cycles. A
 * self-recurrence needs a RecMII above the MII search's INT32_MAX / 2
 * range and answers mii.too_large (it used to answer error.mii_bounds
 * with a false zero-distance message). A chain of three such ops needs
 * schedule times beyond an int and answers sched.too_large before any
 * attempt runs (the attempt used to overflow `int` in Estart, which
 * UBSan reports, and then fail verification). Every backend and the
 * list schedule on its own answer so.
 */
TEST(PipelinerTest, HostileLatenciesAnswerTooLarge)
{
    const machine::MachineModel big = machine::parseMachine(
        "machine big\nresource r\nopcode asub 2000000000\nalt a 0:r\n");
    const ir::Loop recurrence =
        ir::parseLoop("loop rec1\nrecurrence n\nn = asub n[1], #3\n");
    const ir::Loop chain = ir::parseLoop("loop chain3\nlivein a\n"
                                         "b = asub a, #1\n"
                                         "c = asub b, #1\n"
                                         "d = asub c, #1\n");
    for (const auto strategy :
         {sched::SchedulerStrategy::kIterative,
          sched::SchedulerStrategy::kSlack,
          sched::SchedulerStrategy::kExact}) {
        const core::SoftwarePipeliner pipeliner(
            big, core::PipelinerOptions{}.withScheduler(strategy));
        const auto rec = pipeliner.pipeline(core::PipelineRequest(recurrence));
        ASSERT_EQ(rec.diagnostics.size(), 1u);
        EXPECT_EQ(rec.diagnostics[0].code, "mii.too_large");
        EXPECT_EQ(rec.firstError().find("zero iteration distance"),
                  std::string::npos)
            << rec.firstError();

        const auto chained = pipeliner.pipeline(core::PipelineRequest(chain));
        ASSERT_EQ(chained.diagnostics.size(), 1u);
        EXPECT_EQ(chained.diagnostics[0].code, "sched.too_large")
            << chained.firstError();
    }

    const graph::DepGraph graph = graph::buildDepGraph(chain, big);
    try {
        sched::listSchedule(chain, big, graph);
        FAIL() << "the list schedule ran past INT32_MAX";
    } catch (const support::CodedError& error) {
        EXPECT_EQ(error.code(), "sched.too_large");
    }
}

/**
 * Memory offsets at the int limits: the margin the simulators give such
 * a loop does not fit their int indices, so sim verification answers
 * sim.too_large before allocating, and the schedule itself is unaffected.
 */
TEST(PipelinerTest, ExtremeMemoryOffsetsAnswerSimTooLarge)
{
    const char* body[] = {
        "xv = load ax @ X -2147483648\n",
        "_ = store ax, t @ X 2147483647\n",
    };
    const std::string head = "loop extreme\nlivein t\nrecurrence ax\n"
                             "ax = aadd ax[1], #8\n";
    const machine::MachineModel machine = machine::cydra5();
    const core::SoftwarePipeliner plain(machine);
    const core::SoftwarePipeliner verified(
        machine, core::PipelinerOptions{}.withSimVerification(true));
    for (const std::string& text :
         {head + body[0], head + body[1], head + body[0] + body[1]}) {
        const ir::Loop loop = ir::parseLoop(text);
        EXPECT_TRUE(plain.pipeline(core::PipelineRequest(loop)).ok())
            << text;
        const auto result = verified.pipeline(core::PipelineRequest(loop));
        ASSERT_EQ(result.diagnostics.size(), 1u) << text;
        EXPECT_EQ(result.diagnostics[0].code, "sim.too_large")
            << result.firstError();
    }
}

TEST(PipelinerTest, SimVerificationRefusesArraysPastTheBound)
{
    // One array, stride 1, distance 1: at the largest default trip (17)
    // the array spans 17 + 2 * (offset + 1 + 2) cells, so `offset` is the
    // smallest store offset whose verification would pass the bound. It
    // is refused before any trip runs and before anything is allocated.
    const auto loop_at = [](std::int64_t store_offset) {
        return ir::parseLoop("loop far\nlivein t\nrecurrence ax\n"
                             "ax = aadd ax[1], #8\n_ = store ax, t @ X " +
                             std::to_string(store_offset) + "\n");
    };
    const std::int64_t offset = (sim::kMaxSimulatedValues - 23) / 2 + 1;
    const ir::Loop below = loop_at(offset - 1);
    EXPECT_EQ(sim::simulatedCells(below, 17, sim::defaultMargin(below)),
              sim::kMaxSimulatedValues - 1);
    const ir::Loop loop = loop_at(offset);
    EXPECT_THROW(sim::simulatedCells(loop, 17, sim::defaultMargin(loop)),
                 support::CodedError);
    EXPECT_NO_THROW(sim::simulatedCells(loop, 0, sim::defaultMargin(loop)));

    const core::SoftwarePipeliner verified(
        machine::cydra5(), core::PipelinerOptions{}.withSimVerification(true));
    const auto result = verified.pipeline(core::PipelineRequest(loop));
    ASSERT_EQ(result.diagnostics.size(), 1u) << result.firstError();
    EXPECT_EQ(result.diagnostics[0].code, "sim.too_large");
}

TEST(PipelinerTest, MachineSweepAllKernels)
{
    for (const auto& machine :
         {machine::cydra5(), machine::clean64(), machine::wideVliw(),
          machine::scalarToy()}) {
        core::SoftwarePipeliner pipeliner(machine);
        for (const auto& w : workloads::kernelLibrary()) {
            const auto artifacts = pipeliner.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
            EXPECT_GE(artifacts.outcome.schedule.ii,
                      artifacts.outcome.mii)
                << machine.name() << "/" << w.loop.name();
        }
    }
}

TEST(PipelinerTest, WiderMachineNeverRaisesIi)
{
    core::SoftwarePipeliner narrow(machine::clean64());
    core::SoftwarePipeliner wide(machine::wideVliw());
    for (const auto& w : workloads::kernelLibrary()) {
        const auto a = narrow.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
        const auto b = wide.pipeline(core::PipelineRequest(w.loop)).artifactsOrThrow();
        EXPECT_LE(b.outcome.schedule.ii, a.outcome.schedule.ii)
            << w.loop.name();
    }
}

} // namespace
