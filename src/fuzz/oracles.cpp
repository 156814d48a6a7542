#include "fuzz/oracles.hpp"

#include <algorithm>

#include "graph/scc.hpp"
#include "mii/mii.hpp"
#include "program/program_executor.hpp"
#include "workloads/programs.hpp"

namespace ims::fuzz {

OracleVerdict
runOracles(const ir::Loop& loop, const machine::MachineModel& machine,
           const core::PipelinerOptions& config, const OracleOptions& oracle)
{
    OracleVerdict verdict;

    core::PipelinerOptions options = config;
    options.verify = true;
    options.verifySim = true;
    options.verifySimTrips = oracle.trips;
    options.verifySimSeed = oracle.simSeed;

    try {
        const core::SoftwarePipeliner pipeliner(machine, options);
        core::PipelineResult result =
            pipeliner.pipeline(core::PipelineRequest(loop));

        verdict.ii = result.telemetry.ii;
        verdict.mii = result.telemetry.mii;
        verdict.diagnostics = result.diagnostics;

        if (!result.ok()) {
            for (const auto& diagnostic : result.diagnostics) {
                if (diagnostic.severity !=
                    core::Diagnostic::Severity::kError)
                    continue;
                verdict.code = diagnostic.code.empty() ? "error.unknown"
                                                       : diagnostic.code;
                verdict.message = diagnostic.message;
                break;
            }
            if (verdict.code.empty()) {
                verdict.code = "error.unknown";
                verdict.message = "pipeline failed without diagnostics";
            }
            return verdict;
        }

        // MII sanity, independent of the production MII protocol: a
        // verified-legal schedule whose II undercuts the true lower
        // bound means a bound (or the verifier) is wrong.
        const auto& artifacts = *result.artifacts;
        const graph::SccResult sccs = graph::findSccs(artifacts.depGraph);
        const int true_rec =
            mii::computeTrueRecMii(artifacts.depGraph, sccs);
        const int bound = std::max(artifacts.outcome.resMii, true_rec);
        if (artifacts.outcome.schedule.ii < bound) {
            verdict.code = "mii.below_bound";
            verdict.message =
                "achieved II " +
                std::to_string(artifacts.outcome.schedule.ii) +
                " below max(ResMII " +
                std::to_string(artifacts.outcome.resMii) +
                ", true RecMII " + std::to_string(true_rec) + ")";
            return verdict;
        }

        // Program-level equivalence oracle: the whole-program driver
        // (EC/LC loop control, stage predicates, pipeline compression,
        // marshaling) must also reproduce the sequential semantics for
        // this loop at every trip count. Differential against the
        // per-loop sim oracle above: it catches bugs in the program
        // compiler and executor, not just in the schedule.
        // The wrapper's marshal blocks and the EC/LC lowering introduce
        // opcodes of their own; a random machine missing one of them
        // cannot run the driver at all, which is undecided, not a
        // finding.
        const bool programOracleSupported =
            machine.supports(ir::Opcode::kAdd) &&
            machine.supports(ir::Opcode::kMul) &&
            machine.supports(ir::Opcode::kSub) &&
            machine.supports(ir::Opcode::kMax) &&
            machine.supports(ir::Opcode::kMin) &&
            machine.supports(ir::Opcode::kStore);
        if (oracle.checkProgramEquivalence && programOracleSupported) {
            const program::Program wrapped = workloads::wrapLoopAsProgram(
                loop, "fuzz." + loop.name());
            program::ProgramOptions program_options;
            program_options.pipeline = config;
            const auto program_diagnostics =
                program::programEquivalenceDiagnostics(
                    wrapped, machine, program_options, oracle.trips,
                    oracle.simSeed);
            for (const auto& diagnostic : program_diagnostics) {
                verdict.diagnostics.push_back(diagnostic);
                if (verdict.code.empty() &&
                    diagnostic.severity ==
                        core::Diagnostic::Severity::kError) {
                    verdict.code = diagnostic.code.empty()
                                       ? "program.error"
                                       : diagnostic.code;
                    verdict.message = diagnostic.message;
                }
            }
            if (verdict.failed())
                return verdict;
        }

        // Optimality oracle: the exact branch-and-bound backend proves
        // the minimal feasible II; a heuristic II above it is a quality
        // finding, and an exact run that fails its own verification is a
        // correctness finding. A budget-exhausted exact search decides
        // nothing and is skipped.
        if (oracle.checkOptimality) {
            core::PipelinerOptions exact_options = options;
            exact_options
                .withScheduler(sched::SchedulerStrategy::kExact)
                .withExactNodeBudget(oracle.exactNodeBudget);
            // The heuristic II is known feasible, so the exact search
            // never needs to look above it: cap the II range there. This
            // bounds the oracle's cost at (gap + 1) attempts instead of
            // the full maxIiIncrease range.
            exact_options.schedule.search.maxIiIncrease =
                std::max(0, verdict.ii - verdict.mii);
            const core::SoftwarePipeliner exact_pipeliner(machine,
                                                          exact_options);
            core::PipelineResult exact_result =
                exact_pipeliner.pipeline(core::PipelineRequest(loop));
            if (!exact_result.ok()) {
                for (const auto& diagnostic : exact_result.diagnostics) {
                    if (diagnostic.code == "exact.budget_exhausted")
                        return verdict; // undecided, not a finding
                }
                verdict.code = "opt.exact_invalid";
                verdict.message =
                    "exact backend failed where the heuristic "
                    "succeeded: " +
                    exact_result.firstError();
                for (auto& diagnostic : exact_result.diagnostics)
                    verdict.diagnostics.push_back(std::move(diagnostic));
                return verdict;
            }
            verdict.exactIi = exact_result.telemetry.ii;
            if (verdict.exactIi > verdict.ii) {
                // The exact search "proved" the heuristic's verified II
                // infeasible — its infeasibility proof is wrong.
                verdict.code = "opt.exact_invalid";
                verdict.message =
                    "exact backend proved II " + std::to_string(verdict.ii) +
                    " infeasible but the heuristic holds a verified "
                    "schedule at that II (exact II " +
                    std::to_string(verdict.exactIi) + ")";
            } else if (verdict.exactIi < verdict.ii) {
                verdict.code = "opt.ii_gap";
                verdict.message =
                    "heuristic II " + std::to_string(verdict.ii) +
                    " exceeds proven-optimal II " +
                    std::to_string(verdict.exactIi) + " (MII " +
                    std::to_string(verdict.mii) + ")";
            }
        }
    } catch (const std::exception& error) {
        // pipeline() reports its own failures via diagnostics; anything
        // escaping it (or the MII recomputation) is itself a finding.
        verdict.code = "crash.exception";
        verdict.message = error.what();
    }
    return verdict;
}

} // namespace ims::fuzz
