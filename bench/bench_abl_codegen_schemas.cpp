/**
 * @file
 * Ablation: code-generation schemas (§1, citing Rau/Schlansker/Tirumalai
 * [36]). The same modulo schedule can be lowered three ways, trading
 * hardware support against static code size:
 *
 *  1. no hardware support: modulo variable expansion unrolls the kernel
 *     kmin times and explicit prologue/epilogue ramp the pipe;
 *  2. rotating registers only: the kernel needs no unrolling but still
 *     needs the prologue/epilogue;
 *  3. rotating registers + predicated execution: kernel-only code — "with
 *     the appropriate hardware support, there need be no code expansion
 *     whatsoever".
 *
 * The table reports static code size in VLIW instructions per schema for
 * the kernel library, relative to the single-iteration schedule length.
 */
#include <iostream>

#include "codegen/code_generator.hpp"
#include "common.hpp"

int
main()
{
    using namespace ims;
    using namespace ims::bench;

    const auto machine = machine::cydra5();
    sched::ScheduleOptions options;
    options.search.budgetRatio = 6.0;

    support::TextTable table(
        "static code size by code-generation schema (VLIW instructions)");
    table.addHeader({"Kernel", "SL", "MVE+pro/epi", "rot+pro/epi",
                     "kernel-only", "MVE expansion", "kernel-only "
                     "expansion"});

    double sum_mve = 0.0, sum_rot = 0.0, sum_kernel_only = 0.0,
           sum_sl = 0.0;
    for (const auto& w : workloads::kernelLibrary()) {
        const auto g = graph::buildDepGraph(w.loop, machine);
        const auto sccs = graph::findSccs(g);
        const auto outcome =
            sched::schedule(w.loop, machine, g, sccs, options);
        const auto code =
            codegen::generateCode(w.loop, machine, outcome.schedule);

        const int ramp = code.prologue.numCycles();
        const int mve_size =
            ramp + code.kernelSection.numCycles() * code.mve.unroll +
            code.epilogue.numCycles();
        const int rot_size =
            ramp + code.kernelSection.numCycles() +
            code.epilogue.numCycles();
        // Kernel-only code is the kernel section alone, II instructions.
        const int ko_size = code.kernelSection.numCycles();
        const int sl = outcome.schedule.scheduleLength;

        sum_mve += mve_size;
        sum_rot += rot_size;
        sum_kernel_only += ko_size;
        sum_sl += sl;

        table.addRow({w.loop.name(), std::to_string(sl),
                      std::to_string(mve_size), std::to_string(rot_size),
                      std::to_string(ko_size),
                      support::formatDouble(
                          static_cast<double>(mve_size) / sl, 2) + "x",
                      support::formatDouble(
                          static_cast<double>(ko_size) / sl, 2) + "x"});
    }
    table.addRow({"TOTAL", support::formatDouble(sum_sl, 0),
                  support::formatDouble(sum_mve, 0),
                  support::formatDouble(sum_rot, 0),
                  support::formatDouble(sum_kernel_only, 0),
                  support::formatDouble(sum_mve / sum_sl, 2) + "x",
                  support::formatDouble(sum_kernel_only / sum_sl, 2) +
                      "x"});
    table.print(std::cout);

    std::cout
        << "\nExpected shape: the kernel-only schema's code size equals "
           "the II — smaller than one\niteration's schedule (§1: \"with "
           "the appropriate hardware support, there need be no code\n"
           "expansion whatsoever\"); rotating registers alone already "
           "remove the kmin unrolling factor;\nall three remain far "
           "below the tens-of-copies replication of unroll-based "
           "schemes.\n";
    return 0;
}
