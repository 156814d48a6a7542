#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "ir/printer.hpp"
#include "machine/machines.hpp"
#include "sched/schedule.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "transform/unroll.hpp"
#include "workloads/corpus.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_loops.hpp"

namespace perfbench {

using namespace ims;

std::vector<ir::Loop>
corpusLoops()
{
    std::vector<ir::Loop> loops;
    for (auto& workload : workloads::buildCorpus())
        loops.push_back(std::move(workload.loop));
    return loops;
}

std::vector<ir::Loop>
unrollLadder()
{
    std::vector<ir::Loop> ladder;
    for (const char* kernel : {"daxpy", "stencil3", "hydro_frag"}) {
        const ir::Loop base = workloads::kernelByName(kernel).loop;
        for (const int target : {75, 300, 600}) {
            const int factor = std::max(
                1, static_cast<int>(std::lround(
                       static_cast<double>(target) / base.size())));
            ladder.push_back(transform::unrollLoop(base, factor));
        }
    }
    return ladder;
}

std::vector<ir::Loop>
hardIiLoops(int want)
{
    constexpr int kMinAttempts = 5;
    constexpr int kUnroll = 8;
    constexpr int kMaxCandidates = 20'000;
    const machine::MachineModel machine = machine::scalarToy();
    const auto profile = workloads::fuzzProfile();
    // bench_ii_search's stream: its five workloads are the first five here.
    support::Rng rng(1);
    std::vector<ir::Loop> hard;
    for (int i = 0;
         i < kMaxCandidates && static_cast<int>(hard.size()) < want; ++i) {
        const ir::Loop loop = workloads::generateLoop(
            rng, "hard_" + std::to_string(i), profile);
        try {
            if (sched::schedule(loop, machine).attempts < kMinAttempts)
                continue;
        } catch (const support::Error&) {
            continue;
        }
        hard.push_back(transform::unrollLoop(loop, kUnroll));
    }
    return hard;
}

const std::vector<std::string>&
serveMachines()
{
    static const std::vector<std::string> names = {"cydra5", "clean64",
                                                   "wide-vliw", "scalar-toy"};
    return names;
}

std::vector<ServeItem>
corpusGeneratorItems(std::uint64_t seed, const std::string& prefix,
                     int count)
{
    support::Rng rng(seed);
    std::vector<ServeItem> items;
    items.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const ir::Loop loop =
            workloads::generateLoop(rng, prefix + std::to_string(i));
        const int machine = rng.uniformInt(
            0, static_cast<int>(serveMachines().size()) - 1);
        items.push_back({ir::printLoop(loop),
                         serveMachines()[static_cast<std::size_t>(machine)]});
    }
    return items;
}

} // namespace perfbench
