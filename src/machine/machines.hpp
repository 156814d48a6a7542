#ifndef IMS_MACHINE_MACHINES_HPP
#define IMS_MACHINE_MACHINES_HPP

#include <optional>
#include <string_view>

#include "machine/machine_model.hpp"

namespace ims::machine {

/**
 * A clean 64-bit-datapath machine: the same functional-unit mix as the
 * Cydra 5 model but with private buses, so every reservation table is
 * simple (one resource for one cycle at issue). This is the machine the
 * paper says future microprocessors resemble; used as an ablation to show
 * how table complexity drives the need for iterative scheduling.
 */
MachineModel clean64();

/**
 * A wide VLIW: four memory ports, four address ALUs, two adders, two
 * multipliers, all with simple tables and shorter latencies. Used by
 * the machine-exploration example and ablation benches.
 */
MachineModel wideVliw();

/**
 * A minimal single-issue-per-class machine with unit latencies; useful in
 * unit tests where hand-computed schedules must stay small.
 */
MachineModel scalarToy();

/** The stock machines' names, as the tools and the service take them;
 *  each is also the name() of the machine it selects. */
inline constexpr std::string_view kStockMachineNames[] = {
    "cydra5", "clean64", "wide-vliw", "scalar-toy"};

/** The stock machine (cydra5() or one of the three above) named `name`,
 *  or nullopt for any other name. */
std::optional<MachineModel> stockMachine(std::string_view name);

} // namespace ims::machine

#endif // IMS_MACHINE_MACHINES_HPP
