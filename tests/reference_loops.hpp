#ifndef IMS_TESTS_REFERENCE_LOOPS_HPP
#define IMS_TESTS_REFERENCE_LOOPS_HPP

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "ir/loop.hpp"
#include "machine/cydra5.hpp"
#include "machine/machines.hpp"
#include "sched/schedule.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "transform/unroll.hpp"
#include "workloads/corpus.hpp"
#include "workloads/kernels.hpp"
#include "workloads/random_loops.hpp"

namespace ims::test_loops {

/**
 * daxpy, stencil3 and hydro_frag unrolled to about 75, 300 and 600 ops:
 * the big loops where the non-scheduling layers of pipeline() showed
 * their quadratic terms.
 */
inline std::vector<ir::Loop>
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

/**
 * Recurrence-dense loops: the first `want` fuzz-profile loops (seed 1)
 * whose II walk on scalar-toy needs at least five attempts, unrolled x8,
 * as perfbench's hard_ii workload builds them. 30-70% of their MinDist
 * cells are finite, against a few percent on the kernels and the ladder.
 */
inline std::vector<ir::Loop>
hardIiLoops(int want)
{
    const machine::MachineModel machine = machine::scalarToy();
    const auto profile = workloads::fuzzProfile();
    support::Rng rng(1);
    std::vector<ir::Loop> hard;
    for (int i = 0; static_cast<int>(hard.size()) < want; ++i) {
        const ir::Loop loop = workloads::generateLoop(
            rng, "hard_" + std::to_string(i), profile);
        try {
            if (sched::schedule(loop, machine).attempts < 5)
                continue;
        } catch (const support::Error&) {
            continue;
        }
        hard.push_back(transform::unrollLoop(loop, 8));
    }
    return hard;
}

/** Every kernel-library loop. */
inline std::vector<ir::Loop>
kernelLoops()
{
    std::vector<ir::Loop> loops;
    for (auto& workload : workloads::kernelLibrary())
        loops.push_back(std::move(workload.loop));
    return loops;
}

/**
 * The inputs a linear-time layer is compared with its quadratic
 * reference on: the kernel library, the §4.1 corpus and the ladder.
 */
inline std::vector<ir::Loop>
referenceLoops()
{
    std::vector<ir::Loop> loops = kernelLoops();
    for (auto& workload : workloads::buildCorpus())
        loops.push_back(std::move(workload.loop));
    for (auto& loop : unrollLadder())
        loops.push_back(std::move(loop));
    return loops;
}

/** The four stock machines. */
inline std::vector<machine::MachineModel>
stockMachines()
{
    return {machine::cydra5(), machine::clean64(), machine::wideVliw(),
            machine::scalarToy()};
}

} // namespace ims::test_loops

#endif // IMS_TESTS_REFERENCE_LOOPS_HPP
