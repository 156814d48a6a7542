#include "fuzz/campaign.hpp"

#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "fuzz/machine_gen.hpp"
#include "fuzz/minimizer.hpp"
#include "fuzz/reproducer.hpp"
#include "ir/printer.hpp"
#include "machine/machine_io.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"

namespace ims::fuzz {

namespace {

std::string
loopNameFor(std::uint64_t index)
{
    return "fuzz_" + std::to_string(index);
}

std::string
machineNameFor(std::uint64_t index)
{
    return "fm_" + std::to_string(index);
}

} // namespace

std::uint64_t
caseSeed(std::uint64_t campaign_seed, std::uint64_t case_index)
{
    // SplitMix64 finalizer over a golden-ratio stride: statistically
    // independent per-case streams, identical on every platform.
    std::uint64_t x =
        campaign_seed + 0x9e3779b97f4a7c15ULL * (case_index + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::string
CampaignReport::toJson() const
{
    std::ostringstream out;
    out << "{\"tool\":\"ims_fuzz\",\"seed\":" << seed
        << ",\"cases\":" << cases << ",\"clean\":" << clean
        << ",\"findings\":" << findings.size();
    out << ",\"codes\":{";
    for (std::size_t i = 0; i < codeCounts.size(); ++i) {
        if (i > 0)
            out << ',';
        out << support::jsonString(codeCounts[i].first) << ':'
            << codeCounts[i].second;
    }
    out << "},\"failures\":[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const CampaignFinding& finding = findings[i];
        if (i > 0)
            out << ',';
        out << "{\"case\":" << finding.caseIndex << ",\"seed\":\""
            << finding.caseSeed
            << "\",\"code\":" << support::jsonString(finding.code)
            << ",\"message\":" << support::jsonString(finding.message)
            << ",\"ops\":" << finding.ops
            << ",\"minOps\":" << finding.minimizedOps
            << ",\"repro\":" << support::jsonString(finding.reproFile)
            << '}';
    }
    out << "]}";
    return out.str();
}

CampaignReport
runCampaign(const CampaignOptions& options)
{
    CampaignReport report;
    report.seed = options.seed;
    report.cases = options.cases;

    std::optional<machine::MachineModel> fixed_machine;
    if (!options.machineText.empty())
        fixed_machine = machine::parseMachine(options.machineText);

    struct Slot
    {
        std::uint64_t caseSeed = 0;
        int ops = 0;
        std::string code;
        std::string message;
    };
    const std::size_t count =
        options.cases > 0 ? static_cast<std::size_t>(options.cases) : 0;
    std::vector<Slot> slots(count);

    const int threads = support::resolveThreads(options.threads, count);
    report.threadsUsed = threads;
    const auto start = std::chrono::steady_clock::now();

    // Phase 1 (parallel): generate and judge every case. Each worker
    // reads only immutable options and writes only its own slot, so the
    // outcome is independent of scheduling (see support::parallelFor).
    support::parallelFor(count, threads, [&](std::size_t index) {
        Slot& slot = slots[index];
        slot.caseSeed = caseSeed(options.seed, index);
        try {
            support::Rng rng(slot.caseSeed);
            const ir::Loop loop =
                workloads::generateLoop(rng, loopNameFor(index),
                                        options.profile);
            const machine::MachineModel machine =
                fixed_machine ? *fixed_machine
                              : generateMachine(rng, machineNameFor(index));
            slot.ops = loop.size();
            OracleOptions oracle = options.oracle;
            oracle.simSeed = slot.caseSeed;
            const OracleVerdict verdict =
                runOracles(loop, machine, options.pipeline, oracle);
            slot.code = verdict.code;
            slot.message = verdict.message;
        } catch (const std::exception& error) {
            // Generation itself crashing is a finding too.
            slot.code = "crash.generator";
            slot.message = error.what();
        }
    });

    // Phase 2 (sequential, case order): minimize findings and write
    // reproducers. Sequential so file output and candidate counts are
    // deterministic.
    if (!options.reproDir.empty())
        std::filesystem::create_directories(options.reproDir);
    for (std::size_t index = 0; index < slots.size(); ++index) {
        const Slot& slot = slots[index];
        if (slot.code.empty()) {
            ++report.clean;
            continue;
        }
        CampaignFinding finding;
        finding.caseIndex = index;
        finding.caseSeed = slot.caseSeed;
        finding.code = slot.code;
        finding.message = slot.message;
        finding.ops = slot.ops;
        finding.minimizedOps = slot.ops;

        if (slot.code != "crash.generator") {
            support::Rng rng(slot.caseSeed);
            ir::Loop loop = workloads::generateLoop(
                rng, loopNameFor(index), options.profile);
            machine::MachineModel machine =
                fixed_machine ? *fixed_machine
                              : generateMachine(rng, machineNameFor(index));
            OracleOptions oracle = options.oracle;
            oracle.simSeed = slot.caseSeed;

            if (options.minimize) {
                MinimizeResult minimized =
                    minimize(loop, machine, options.pipeline, oracle);
                if (minimized.code == slot.code) {
                    loop = std::move(minimized.loop);
                    machine = std::move(minimized.machine);
                    finding.minimizedOps = minimized.minimizedOps;
                    finding.message = minimized.message;
                }
            }

            if (!options.reproDir.empty()) {
                ReproducerCase repro;
                repro.code = finding.code;
                repro.message = finding.message;
                repro.campaignSeed = options.seed;
                repro.caseIndex = index;
                repro.caseSeed = slot.caseSeed;
                repro.simSeed = slot.caseSeed;
                repro.machineText = machine::printMachine(machine);
                repro.loopText = ir::printLoop(loop);
                const std::string path =
                    options.reproDir + "/" +
                    reproducerFileName(options.seed, index);
                writeTextFile(path, renderReproducer(repro));
                finding.reproFile = path;
            }
        }
        report.findings.push_back(std::move(finding));
    }

    std::map<std::string, int> by_code;
    for (const auto& finding : report.findings)
        ++by_code[finding.code];
    report.codeCounts.assign(by_code.begin(), by_code.end());

    report.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return report;
}

} // namespace ims::fuzz
