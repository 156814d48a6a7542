#include "core/batch_pipeliner.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "support/parallel.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace ims::core {

std::size_t
BatchResult::successes() const
{
    std::size_t count = 0;
    for (const auto& item : items) {
        if (item.result.ok())
            ++count;
    }
    return count;
}

std::size_t
BatchResult::failures() const
{
    return items.size() - successes();
}

std::string
BatchResult::summaryTable() const
{
    std::vector<double> dilation;
    std::vector<double> attempts;
    std::vector<double> lengthRatio;
    std::vector<double> wallMs;
    for (const auto& item : items) {
        if (!item.result.ok())
            continue;
        const auto& telemetry = item.result.telemetry;
        const auto& artifacts = *item.result.artifacts;
        dilation.push_back(static_cast<double>(telemetry.ii) /
                           std::max(1, telemetry.mii));
        attempts.push_back(static_cast<double>(telemetry.attempts));
        lengthRatio.push_back(
            static_cast<double>(telemetry.scheduleLength) /
            std::max(1, artifacts.minScheduleLength));
        wallMs.push_back(telemetry.wallSeconds * 1e3);
    }

    std::ostringstream out;
    out << "batch: " << successes() << "/" << items.size()
        << " loops pipelined";
    if (failures() > 0)
        out << " (" << failures() << " failed)";
    out << " in " << support::formatDouble(wallSeconds, 3) << " s on "
        << threadsUsed << (threadsUsed == 1 ? " thread" : " threads")
        << "\n";
    if (dilation.empty())
        return out.str();

    support::TextTable table("batch distribution (successful loops)");
    table.addHeader({"measurement", "min possible", "freq at min",
                     "median", "mean", "max"});
    const auto row = [&table](const std::string& label,
                              const std::vector<double>& samples,
                              double min_possible) {
        const auto stats = support::summarize(samples, min_possible);
        table.addRow({label, support::formatDouble(stats.minPossible, 2),
                      support::formatDouble(stats.freqOfMinPossible, 3),
                      support::formatDouble(stats.median, 2),
                      support::formatDouble(stats.mean, 3),
                      support::formatDouble(stats.maximum, 2)});
    };
    row("II / MII", dilation, 1.0);
    row("candidate IIs attempted", attempts, 1.0);
    row("SL / lower bound", lengthRatio, 1.0);
    row("wall ms per loop", wallMs, 0.0);
    table.print(out);
    return out.str();
}

std::string
BatchResult::telemetryJson() const
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ',';
        out += items[i].result.telemetry.toJson();
    }
    out += ']';
    return out;
}

BatchPipeliner::BatchPipeliner(machine::MachineModel machine,
                               BatchOptions options)
    : pipeliner_(std::move(machine), options.pipeline), options_(options)
{
}

BatchResult
BatchPipeliner::run(const std::vector<ir::Loop>& loops) const
{
    BatchResult batch;
    batch.items.resize(loops.size());

    const int threads =
        support::resolveThreads(options_.threads, loops.size());
    batch.threadsUsed = threads;

    const auto start = std::chrono::steady_clock::now();

    // Deterministic by construction: each loop's computation reads only
    // the loop, the immutable machine model and the pipeliner's options,
    // and writes only its own pre-sized slot — which worker runs a slot is
    // the only racy part (see support::parallelFor).
    support::parallelFor(
        loops.size(), threads, [this, &loops, &batch](std::size_t index) {
            const ir::Loop& loop = loops[index];
            BatchItem& item = batch.items[index];
            item.name = loop.name();
            try {
                item.result = pipeliner_.pipeline(PipelineRequest(loop));
            } catch (const std::exception& error) {
                // pipeline() reports input problems via diagnostics;
                // anything escaping it is unexpected but must not sink
                // the batch.
                item.result.diagnostics.push_back(
                    {Diagnostic::Severity::kError, "", error.what(), ""});
            }
        });

    batch.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return batch;
}

} // namespace ims::core
