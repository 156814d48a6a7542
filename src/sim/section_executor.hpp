#ifndef IMS_SIM_SECTION_EXECUTOR_HPP
#define IMS_SIM_SECTION_EXECUTOR_HPP

#include "codegen/code_generator.hpp"
#include "codegen/kernel_only.hpp"
#include "sim/register_file.hpp"
#include "sim/sequential_interpreter.hpp"

namespace ims::sim {

/**
 * Execute one operation instance for a concrete iteration against the
 * shared register file and memory — the primitive every section-level
 * executor (and the program-level executor) is built on. Call once per
 * cycle with store_phase false (loads and ALU ops) and once with true
 * (stores), preserving the dependence model's same-cycle ordering.
 * Guarded instances whose predicate is false store nothing and write 0.0
 * to their destination, like both reference engines.
 */
void executeOpInstance(const ir::Operation& op, int iter,
                       RegisterFile& registers, Memory& memory,
                       bool store_phase);

/**
 * Execute the *generated code structure* — prologue once, the kernel
 * section trip - stageCount + 1 times, epilogue once — rather than the
 * flat schedule. Each OpInstance's iterationOffset is resolved exactly the
 * way the emitted code's register copies would resolve it:
 *
 *  - prologue instances run for iteration `offset` (counted from 0);
 *  - kernel repetition r (r = 0, 1, ...) runs its instances for iteration
 *    (stageCount - 1 + r) + offset (offset is -stage);
 *  - epilogue instances run for iteration trip + offset (offset < 0).
 *
 * Within a cycle, loads execute before stores, matching the dependence
 * model. Comparing the result against runSequential() validates that the
 * prologue/kernel/epilogue decomposition (including its instance
 * bookkeeping) is semantically faithful — not just the flat schedule.
 *
 * @pre spec.tripCount >= code.kernel.stageCount (shorter trips bypass the
 *      pipelined loop; checked).
 */
SimResult runGeneratedCode(const ir::Loop& loop,
                           const codegen::GeneratedCode& code,
                           const SimSpec& spec);

/**
 * Execute kernel-only code ([36]): the kernel runs trip + stageCount - 1
 * times; in repetition r, the instance of an operation at stage s is
 * enabled exactly when its stage predicate would be on, i.e. when
 * 0 <= r - s < trip. Validates the zero-code-expansion schema's
 * semantics against runSequential(). No precondition on the trip count —
 * the stage predicates handle short trips naturally.
 */
SimResult runKernelOnly(const ir::Loop& loop,
                        const codegen::KernelOnlyCode& code,
                        const SimSpec& spec);

} // namespace ims::sim

#endif // IMS_SIM_SECTION_EXECUTOR_HPP
