#ifndef IMS_CODEGEN_EMIT_HPP
#define IMS_CODEGEN_EMIT_HPP

#include <string>

#include "codegen/code_generator.hpp"
#include "codegen/register_allocator.hpp"

namespace ims::codegen {

/**
 * Render the full pipelined code (prologue, kernel — replicated
 * `mve.unroll` times with modulo register renaming — and epilogue) as a
 * human-readable assembly-style listing. Register operands are printed
 * with their physical names from `allocation`; each line shows the cycle
 * within its section and each op instance its source-iteration tag.
 */
std::string emitListing(const ir::Loop& loop, const GeneratedCode& code,
                        const RegisterAllocation& allocation);

/** Render only the kernel rows with stage annotations (compact form). */
std::string emitKernel(const ir::Loop& loop, const GeneratedCode& code);

/**
 * Render the kernel-only schema of Rau/Schlansker/Tirumalai [36], which
 * §1 invokes for "no code expansion whatsoever" on hardware with rotating
 * registers and predicated execution: the kernel section is the whole
 * loop, every instance guarded by the stage predicate of its stage
 * ("... if sp[2]"). The hardware turns one stage predicate on per II
 * while iterations remain and off while draining, so the loop runs
 * trip + stageCount - 1 kernel repetitions in II instructions of code.
 */
std::string emitKernelOnly(const ir::Loop& loop, const GeneratedCode& code);

} // namespace ims::codegen

#endif // IMS_CODEGEN_EMIT_HPP
