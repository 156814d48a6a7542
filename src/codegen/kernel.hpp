#ifndef IMS_CODEGEN_KERNEL_HPP
#define IMS_CODEGEN_KERNEL_HPP

#include <vector>

#include "ir/loop.hpp"
#include "sched/attempt.hpp"

namespace ims::codegen {

/** Placement of one operation in the steady-state kernel. */
struct KernelPlacement
{
    ir::OpId op = -1;
    /** Stage index: SchedTime / II. */
    int stage = 0;
    /** Row within the kernel: SchedTime mod II. */
    int slot = 0;
    /** Machine alternative chosen by the scheduler. */
    int alternative = 0;
};

/**
 * The steady-state kernel of a modulo schedule: each operation issues at
 * row `slot` of every kernel iteration, on behalf of the iteration started
 * `stage` kernel iterations ago.
 */
struct Kernel
{
    int ii = 1;
    /** Number of pipeline stages: floor(max issue time / II) + 1. */
    int stageCount = 1;
    /** One entry per loop operation. */
    std::vector<KernelPlacement> placements;

    /** Operations issuing in row `slot`, in stage order. */
    std::vector<KernelPlacement> rowOf(int slot) const;
};

/** Derive the kernel structure from a schedule. */
Kernel buildKernel(const ir::Loop& loop,
                   const sched::ScheduleResult& schedule);

} // namespace ims::codegen

#endif // IMS_CODEGEN_KERNEL_HPP
