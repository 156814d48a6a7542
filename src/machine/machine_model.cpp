#include "machine/machine_model.hpp"

#include <cassert>
#include <sstream>

#include "support/error.hpp"

namespace ims::machine {

MachineModel::MachineModel(std::string name,
                           std::vector<std::string> resource_names,
                           std::map<ir::Opcode, OpcodeInfo> opcodes)
    : name_(std::move(name)),
      resourceNames_(std::move(resource_names)),
      infoByOpcode_(ir::kNumOpcodes)
{
    // Pseudo-operations are implicitly supported with zero latency and a
    // single empty alternative so schedulers can treat them uniformly.
    for (ir::Opcode pseudo : {ir::Opcode::kStart, ir::Opcode::kStop}) {
        if (opcodes.count(pseudo) == 0) {
            OpcodeInfo info;
            info.latency = 0;
            info.alternatives = {Alternative{"pseudo", ReservationTable{}}};
            opcodes.emplace(pseudo, std::move(info));
        }
    }
    // Every machine passes through here (builder, parser, fuzz generator,
    // minimizer), so this is the one place its validity is decided. A
    // negative latency or use time would become a negative modulo
    // rotation in the MRT.
    for (auto& [opcode, info] : opcodes) {
        support::check(!info.alternatives.empty(), [&] {
            return "opcode " + ir::opcodeName(opcode) +
                   " has no alternatives";
        });
        support::check(info.latency >= 0, [&] {
            return "opcode " + ir::opcodeName(opcode) +
                   " has negative latency " + std::to_string(info.latency);
        });
        for (const auto& alt : info.alternatives) {
            for (const auto& use : alt.table.uses()) {
                support::check(
                    use.resource >= 0 && use.resource < numResources(),
                    [&] {
                        return "reservation table for " +
                               ir::opcodeName(opcode) +
                               " uses undeclared resource";
                    });
                support::check(use.time >= 0, [&] {
                    return "reservation table for " +
                           ir::opcodeName(opcode) +
                           " uses a resource at negative time " +
                           std::to_string(use.time);
                });
            }
        }
        infoByOpcode_[static_cast<std::size_t>(opcode)] = std::move(info);
    }
}

void
MachineModel::throwUnsupported(ir::Opcode opcode) const
{
    throw support::Error("machine '" + name_ +
                         "' does not implement opcode " +
                         ir::opcodeName(opcode));
}

const std::string&
MachineModel::resourceName(ResourceId id) const
{
    assert(id >= 0 && id < numResources());
    return resourceNames_[id];
}

int
MachineModel::latency(ir::Opcode opcode) const
{
    return info(opcode).latency;
}

int
MachineModel::numAlternatives(ir::Opcode opcode) const
{
    return static_cast<int>(info(opcode).alternatives.size());
}

std::string
MachineModel::toString() const
{
    std::ostringstream out;
    out << "machine " << name_ << "\n  resources:";
    for (const auto& r : resourceNames_)
        out << " " << r;
    out << "\n";
    for (std::size_t index = 0; index < infoByOpcode_.size(); ++index) {
        const auto opcode = static_cast<ir::Opcode>(index);
        const OpcodeInfo& info = infoByOpcode_[index];
        if (info.alternatives.empty() || ir::isPseudo(opcode))
            continue;
        out << "  " << ir::opcodeName(opcode) << " (latency "
            << info.latency << ")";
        for (const auto& alt : info.alternatives) {
            out << "\n    " << alt.name << " ["
                << tableKindName(alt.table.kind()) << "]:";
            for (const auto& use : alt.table.uses()) {
                out << " t" << use.time << ":"
                    << resourceNames_[use.resource];
            }
        }
        out << "\n";
    }
    return out.str();
}

} // namespace ims::machine
