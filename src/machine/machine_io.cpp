#include "machine/machine_io.hpp"

#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "support/error.hpp"
#include "support/parse_number.hpp"
#include "support/text.hpp"

namespace ims::machine {

namespace {

using support::cleanLine;
using support::splitWords;

[[noreturn]] void
fail(int line_no, const std::string& message)
{
    throw support::Error("machine line " + std::to_string(line_no) + ": " +
                         message);
}

} // namespace

std::string
printMachine(const MachineModel& machine)
{
    std::ostringstream out;
    out << "machine " << machine.name() << "\n";
    for (ResourceId r = 0; r < machine.numResources(); ++r)
        out << "resource " << machine.resourceName(r) << "\n";
    for (int index = 0; index < ir::kNumRealOpcodes; ++index) {
        const auto opcode = static_cast<ir::Opcode>(index);
        if (!machine.supports(opcode))
            continue;
        const OpcodeInfo& info = machine.info(opcode);
        out << "opcode " << ir::opcodeName(opcode) << " " << info.latency
            << "\n";
        for (const Alternative& alt : info.alternatives) {
            out << "alt " << alt.name;
            for (const ResourceUse& use : alt.table.uses())
                out << " " << use.time << ":"
                    << machine.resourceName(use.resource);
            out << "\n";
        }
    }
    return out.str();
}

MachineModel
parseMachine(const std::string& text)
{
    std::istringstream in(text);
    std::string raw;
    int line_no = 0;

    std::string name;
    bool saw_machine = false;
    std::vector<std::string> resources;
    std::map<std::string, ResourceId> resource_by_name;
    std::map<ir::Opcode, OpcodeInfo> opcodes;
    OpcodeInfo* current = nullptr;

    while (std::getline(in, raw)) {
        ++line_no;
        const std::string line = cleanLine(raw);
        if (line.empty())
            continue;
        const auto words = splitWords(line);

        if (!saw_machine) {
            if (words.size() != 2 || words[0] != "machine")
                fail(line_no, "expected 'machine <name>' as first directive");
            name = words[1];
            saw_machine = true;
            continue;
        }
        if (words[0] == "resource") {
            if (words.size() != 2)
                fail(line_no, "expected 'resource <name>'");
            if (!resource_by_name
                     .emplace(words[1],
                              static_cast<ResourceId>(resources.size()))
                     .second)
                fail(line_no, "duplicate resource '" + words[1] + "'");
            resources.push_back(words[1]);
            continue;
        }
        if (words[0] == "opcode") {
            if (words.size() != 3)
                fail(line_no, "expected 'opcode <mnemonic> <latency>'");
            const auto opcode = ir::opcodeFromName(words[1]);
            if (!opcode)
                fail(line_no, "unknown opcode '" + words[1] + "'");
            if (opcodes.count(*opcode))
                fail(line_no, "duplicate opcode '" + words[1] + "'");
            OpcodeInfo info;
            if (!support::parseNumber(words[2], info.latency))
                fail(line_no, "bad latency '" + words[2] + "'");
            current = &opcodes.emplace(*opcode, std::move(info))
                           .first->second;
            continue;
        }
        if (words[0] == "alt") {
            if (current == nullptr)
                fail(line_no, "'alt' outside an opcode block");
            if (words.size() < 2)
                fail(line_no, "expected 'alt <name> [<time>:<resource>...]'");
            // The table is built from its uses in one go, so a negative
            // time reaches MachineModel's check instead of addUse's assert.
            std::vector<ResourceUse> uses;
            for (std::size_t k = 2; k < words.size(); ++k) {
                const auto colon = words[k].find(':');
                if (colon == std::string::npos)
                    fail(line_no, "malformed use '" + words[k] +
                                      "' (want <time>:<resource>)");
                int time = 0;
                if (!support::parseNumber(
                        std::string_view(words[k]).substr(0, colon), time))
                    fail(line_no, "bad use time in '" + words[k] + "'");
                const std::string resource = words[k].substr(colon + 1);
                const auto it = resource_by_name.find(resource);
                if (it == resource_by_name.end())
                    fail(line_no, "undeclared resource '" + resource + "'");
                uses.push_back(ResourceUse{time, it->second});
            }
            current->alternatives.push_back(
                Alternative{words[1], ReservationTable(std::move(uses))});
            continue;
        }
        fail(line_no, "unknown directive '" + words[0] + "'");
    }

    support::check(saw_machine, "empty machine text");
    return MachineModel(std::move(name), std::move(resources),
                        std::move(opcodes));
}

} // namespace ims::machine
