/**
 * @file
 * Tests of the differential fuzzing subsystem: machine generator
 * validity, campaign determinism, the clean smoke run, and the
 * end-to-end acceptance path — an injected dependence-delay fault must
 * be caught by the sim-equivalence oracle and auto-minimized into a
 * replayable reproducer.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "fuzz/campaign.hpp"
#include "fuzz/machine_gen.hpp"
#include "fuzz/minimizer.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/reproducer.hpp"
#include "graph/delay_model.hpp"
#include "ir/parser.hpp"
#include "machine/cydra5.hpp"
#include "machine/machine_io.hpp"
#include "support/rng.hpp"
#include "workloads/kernels.hpp"

namespace ims {
namespace {

/** RAII reset of the injected-fault hook, so no test leaks it. */
struct FaultGuard
{
    explicit FaultGuard(bool enabled)
    {
        graph::setDelayFaultForTesting(enabled);
    }
    ~FaultGuard() { graph::setDelayFaultForTesting(false); }
};

TEST(MachineGen, GeneratedMachinesAreAlwaysComplete)
{
    support::Rng rng(99);
    bool saw_single = false;
    bool saw_wide = false;
    for (int i = 0; i < 100; ++i) {
        const machine::MachineModel machine =
            fuzz::generateMachine(rng, "gm_" + std::to_string(i));
        ASSERT_GE(machine.numResources(), 1);
        saw_single = saw_single || machine.numResources() == 1;
        saw_wide = saw_wide || machine.numResources() > 64;
        for (int op = 0; op < ir::kNumRealOpcodes; ++op) {
            const auto opcode = static_cast<ir::Opcode>(op);
            ASSERT_TRUE(machine.supports(opcode)) << machine.name();
            ASSERT_GE(machine.numAlternatives(opcode), 1);
        }
    }
    // The degenerate shapes must actually occur (they are the point).
    EXPECT_TRUE(saw_single);
    EXPECT_TRUE(saw_wide);
}

TEST(Oracles, CleanOnKernelLibrarySample)
{
    const auto machine = machine::cydra5();
    const fuzz::OracleOptions oracle;
    int checked = 0;
    for (const auto& workload : workloads::kernelLibrary()) {
        if (workload.loop.size() > 20)
            continue; // keep the test fast
        const auto verdict = fuzz::runOracles(
            workload.loop, machine, core::PipelinerOptions{}, oracle);
        EXPECT_FALSE(verdict.failed())
            << workload.loop.name() << ": " << verdict.code << ": "
            << verdict.message;
        ++checked;
    }
    EXPECT_GT(checked, 10);
}

TEST(Campaign, ReportIsDeterministicAcrossRunsAndThreadCounts)
{
    fuzz::CampaignOptions options;
    options.seed = 20260806;
    options.cases = 25;
    options.reproDir = "";

    options.threads = 4;
    const auto first = fuzz::runCampaign(options);
    const auto second = fuzz::runCampaign(options);
    options.threads = 1;
    const auto serial = fuzz::runCampaign(options);

    EXPECT_EQ(first.toJson(), second.toJson());
    EXPECT_EQ(first.toJson(), serial.toJson());
}

TEST(Campaign, SmokeRunIsClean)
{
    fuzz::CampaignOptions options;
    options.seed = 1994;
    options.cases = 60;
    options.reproDir = "";
    const auto report = fuzz::runCampaign(options);
    EXPECT_EQ(report.clean, report.cases);
    EXPECT_TRUE(report.findings.empty())
        << report.findings.front().code << ": "
        << report.findings.front().message;
}

TEST(Campaign, InjectedDelayFaultIsCaughtMinimizedAndReplayable)
{
    const FaultGuard fault(true);

    fuzz::CampaignOptions options;
    options.seed = 404;
    options.cases = 20;
    // Memory-carried recurrences are exactly the shape the injected bug
    // (memory flow delay forced to 0) corrupts; make every case one.
    options.profile.pInit = 0.0;
    options.profile.pStreaming = 0.0;
    options.profile.pReduction = 0.0;
    options.profile.pPredicated = 0.0;
    options.profile.pRecurrence = 1.0;
    options.profile.pMemRecurrence = 1.0;
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "ims_fuzz_repro")
            .string();
    options.reproDir = dir;

    const auto report = fuzz::runCampaign(options);
    ASSERT_FALSE(report.findings.empty())
        << "the injected delay fault produced no oracle finding";

    const auto mismatch = std::find_if(
        report.findings.begin(), report.findings.end(),
        [](const fuzz::CampaignFinding& f) {
            return f.code == "sim.mismatch";
        });
    ASSERT_NE(mismatch, report.findings.end())
        << "expected a sim.mismatch finding, got only "
        << report.findings.front().code;

    // The minimizer made the case smaller (or at worst kept it) while
    // preserving the failure code, and wrote a standalone reproducer.
    EXPECT_LE(mismatch->minimizedOps, mismatch->ops);
    ASSERT_FALSE(mismatch->reproFile.empty());
    ASSERT_TRUE(std::filesystem::exists(mismatch->reproFile));

    const fuzz::ReproducerCase repro =
        fuzz::parseReproducer(fuzz::readTextFile(mismatch->reproFile));
    EXPECT_EQ(repro.code, "sim.mismatch");

    // Replaying the standalone reproducer (parse the embedded machine
    // and loop, re-run the oracles) reproduces the same failure while
    // the fault is live...
    const auto machine = machine::parseMachine(repro.machineText);
    const ir::Loop loop = ir::parseLoop(repro.loopText);
    fuzz::OracleOptions oracle;
    oracle.simSeed = repro.simSeed;
    const auto replayed = fuzz::runOracles(
        loop, machine, core::PipelinerOptions{}, oracle);
    EXPECT_EQ(replayed.code, repro.code) << replayed.message;

    // ... and is clean once the fault is fixed (disabled).
    graph::setDelayFaultForTesting(false);
    const auto fixed = fuzz::runOracles(loop, machine,
                                        core::PipelinerOptions{}, oracle);
    EXPECT_FALSE(fixed.failed()) << fixed.code << ": " << fixed.message;
}

TEST(Minimizer, ReturnsCleanInputUnchanged)
{
    const auto workload = workloads::kernelByName("daxpy");
    const auto machine = machine::cydra5();
    const fuzz::OracleOptions oracle;
    const auto result = fuzz::minimize(workload.loop, machine,
                                       core::PipelinerOptions{}, oracle);
    EXPECT_TRUE(result.code.empty());
    EXPECT_EQ(result.minimizedOps, workload.loop.size());
}

} // namespace
} // namespace ims
