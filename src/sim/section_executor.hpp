#ifndef IMS_SIM_SECTION_EXECUTOR_HPP
#define IMS_SIM_SECTION_EXECUTOR_HPP

#include "codegen/code_generator.hpp"
#include "sim/register_file.hpp"
#include "sim/sequential_interpreter.hpp"

namespace ims::sim {

/**
 * Execute one operation instance for a concrete iteration against the
 * shared register file and memory — the step every engine under test is
 * built on. Guarded instances whose predicate is false store nothing and
 * write 0.0 to their destination, like the sequential reference; branches
 * and exits do nothing here (the engines that model exits decide them).
 */
void executeOpInstance(const ir::Operation& op, int iter,
                       RegisterFile& registers, Memory& memory);

/**
 * Execute cycle `cycle` of `section` with iteration base `base`: each
 * instance runs iteration base + iterationOffset when that lies in
 * [0, trip), which is its stage predicate. Loads and ALU ops run first,
 * then stores (stores commit at the end of their issue cycle, matching
 * the dependence model).
 */
void executeCycle(const ir::Loop& loop, const codegen::CodeSection& section,
                  int cycle, int base, int trip, RegisterFile& registers,
                  Memory& memory);

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
 * Comparing the result against runSequential() validates that the
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
 * Execute the kernel-only schema ([36]) of `code`: the kernel section
 * runs trip + stageCount - 1 times; in repetition r, the instance of an
 * operation at stage s is enabled exactly when its stage predicate would
 * be on, i.e. when 0 <= r - s < trip. Validates the zero-code-expansion
 * schema's semantics against runSequential(). No precondition on the trip
 * count — the stage predicates handle short trips naturally.
 */
SimResult runKernelOnly(const ir::Loop& loop,
                        const codegen::GeneratedCode& code,
                        const SimSpec& spec);

} // namespace ims::sim

#endif // IMS_SIM_SECTION_EXECUTOR_HPP
