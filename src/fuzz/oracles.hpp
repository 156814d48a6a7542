#ifndef IMS_FUZZ_ORACLES_HPP
#define IMS_FUZZ_ORACLES_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeliner.hpp"
#include "ir/loop.hpp"
#include "machine/machine_model.hpp"

namespace ims::fuzz {

/** Configuration of the per-case oracle stack. */
struct OracleOptions
{
    /**
     * Trip counts for the sim-equivalence oracle: 0 and 1 exercise the
     * degenerate entry paths, the small values usually sit below the
     * stage count (prologue/epilogue bypass; kernel-only still runs),
     * and 17 reaches pipelined steady state.
     */
    std::vector<int> trips = {0, 1, 2, 5, 17};
    /** Seed for the simulated input data. */
    std::uint64_t simSeed = 1;
    /**
     * Also run the optimality oracle: re-pipeline the case with the exact
     * branch-and-bound backend and require the heuristic II to match the
     * proven-optimal II ("opt.ii_gap" on a gap, "opt.exact_invalid" when
     * the exact schedule itself fails verification). Cases whose exact
     * search exhausts `exactNodeBudget` are skipped — budget exhaustion
     * is not a finding. Off by default (it multiplies per-case cost).
     */
    bool checkOptimality = false;
    /** Per-candidate-II node budget for the optimality oracle. */
    std::int64_t exactNodeBudget = sched::kDefaultExactNodeBudget;
    /**
     * Also run the program-level equivalence oracle: wrap the loop as a
     * minimal full program (workloads::wrapLoopAsProgram), compile it
     * through the ProgramCompiler (EC/LC lowering, stage predicates,
     * pipeline compression) and require the compiled execution to match
     * the sequential reference at every configured trip count
     * ("program.mismatch" / "program.error", or the program compiler's
     * own diagnostic codes). Off by default.
     */
    bool checkProgramEquivalence = false;
};

/**
 * Outcome of running the full oracle stack on one (loop, machine,
 * config) triple. `code` is the machine-readable failure identity (see
 * core::Diagnostic::code, plus "mii.below_bound" from the MII-sanity
 * oracle); empty means every oracle passed.
 */
struct OracleVerdict
{
    std::string code;
    std::string message;
    /** Everything the pipeline run reported (may outnumber `code`). */
    std::vector<core::Diagnostic> diagnostics;
    /** Telemetry extracts for campaign reporting (-1 before scheduling). */
    int ii = -1;
    int mii = -1;
    /** Proven-optimal II from the optimality oracle (-1 when the oracle
     *  is off, the case failed earlier, or the exact search exhausted
     *  its node budget). */
    int exactIi = -1;

    bool failed() const { return !code.empty(); }
};

/**
 * Run every oracle on one case:
 *
 *  1. the production pipeline with structural verification on
 *     (sched::verifySchedule → "verify.*" codes) and the sim-equivalence
 *     oracle on ("sim.mismatch" / "sim.error" codes; sequential
 *     interpreter vs flat-schedule, prologue/kernel/epilogue and
 *     kernel-only engines at every configured trip count);
 *  2. crash/diagnostic capture: any phase that throws becomes an
 *     "error.<phase>" finding instead of an escaping exception;
 *  3. MII sanity: the achieved II must be >= max(ResMII, true RecMII),
 *     with the true RecMII recomputed independently of the scheduler's
 *     production MII protocol ("mii.below_bound" on violation);
 *  4. optionally (OracleOptions::checkOptimality) the optimality oracle:
 *     the exact backend re-pipelines the case and the heuristic II must
 *     equal the proven-optimal II ("opt.ii_gap" / "opt.exact_invalid";
 *     budget-exhausted exact searches are skipped, not findings).
 *
 * Deterministic in its arguments; safe to call concurrently (shared
 * state is read-only).
 */
OracleVerdict runOracles(const ir::Loop& loop,
                         const machine::MachineModel& machine,
                         const core::PipelinerOptions& config,
                         const OracleOptions& oracle);

} // namespace ims::fuzz

#endif // IMS_FUZZ_ORACLES_HPP
