#include "machine/machine_builder.hpp"

#include <utility>

#include "support/error.hpp"

namespace ims::machine {

MachineBuilder::MachineBuilder(std::string name) : name_(std::move(name)) {}

ResourceId
MachineBuilder::addResource(const std::string& name)
{
    resourceNames_.push_back(name);
    return static_cast<ResourceId>(resourceNames_.size()) - 1;
}

MachineBuilder::OpcodeConfig
MachineBuilder::opcode(ir::Opcode opcode, int latency)
{
    opcodes_[opcode].latency = latency;
    return OpcodeConfig(*this, opcode);
}

MachineBuilder::OpcodeConfig&
MachineBuilder::OpcodeConfig::alternative(const std::string& name,
                                          ReservationTable table)
{
    builder_.opcodes_[opcode_].alternatives.push_back(
        Alternative{name, std::move(table)});
    return *this;
}

MachineBuilder::OpcodeConfig&
MachineBuilder::OpcodeConfig::simpleAlternative(const std::string& name,
                                                ResourceId resource)
{
    ReservationTable table;
    table.addUse(0, resource);
    return alternative(name, std::move(table));
}

MachineBuilder::OpcodeConfig&
MachineBuilder::OpcodeConfig::blockAlternative(const std::string& name,
                                               ResourceId resource,
                                               int cycles)
{
    support::check(cycles >= 1, "block alternative needs >= 1 cycle");
    ReservationTable table;
    table.addBlockUse(0, cycles - 1, resource);
    return alternative(name, std::move(table));
}

MachineModel
MachineBuilder::build() const
{
    return MachineModel(name_, resourceNames_, opcodes_);
}

} // namespace ims::machine
