#ifndef IMS_PERFBENCH_INPUTS_HPP
#define IMS_PERFBENCH_INPUTS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/loop.hpp"

namespace perfbench {

/** The §4.1 corpus (1327 loops), in corpus order. */
std::vector<ims::ir::Loop> corpusLoops();

/**
 * daxpy, stencil3 and hydro_frag, each unrolled to about 75, 300 and 600
 * operations (nine loops, smallest first within each kernel).
 */
std::vector<ims::ir::Loop> unrollLadder();

/**
 * The hard-II tail: the first `want` loops of bench_ii_search's fixed
 * fuzz-profile stream that need at least five linear II attempts on
 * scalar-toy, each unrolled eight times. The set is fixed so that every
 * seed measures the same loops; the seed orders the calls.
 */
std::vector<ims::ir::Loop> hardIiLoops(int want);

/** One (loop text, machine) pair for ims-serve. */
struct ServeItem
{
    std::string loopText;
    std::string machine;
};

/** The stock machines every ims-serve request is spread across. */
const std::vector<std::string>& serveMachines();

/**
 * `count` corpus-generator loops as request text, named `<prefix><i>`,
 * each on a machine drawn uniformly from serveMachines().
 */
std::vector<ServeItem> corpusGeneratorItems(std::uint64_t seed,
                                            const std::string& prefix,
                                            int count);

} // namespace perfbench

#endif // IMS_PERFBENCH_INPUTS_HPP
