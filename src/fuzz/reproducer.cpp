#include "fuzz/reproducer.hpp"

#include <fstream>
#include <sstream>

#include "support/error.hpp"
#include "support/parse_number.hpp"

namespace ims::fuzz {

namespace {

/** Header values are single-line; fold any embedded newlines away. */
std::string
singleLine(const std::string& text)
{
    std::string out = text;
    for (char& c : out) {
        if (c == '\n' || c == '\r')
            c = ' ';
    }
    return out;
}

std::uint64_t
parseU64(const std::string& text, const std::string& key)
{
    std::uint64_t value = 0;
    if (!support::parseNumber(text, value))
        throw support::Error("reproducer: bad integer for '" + key +
                             "': " + text);
    return value;
}

} // namespace

std::string
renderReproducer(const ReproducerCase& repro)
{
    std::ostringstream out;
    out << "; ims_fuzz reproducer -- replay with: ims_fuzz --replay "
           "<this file>\n";
    out << "code: " << singleLine(repro.code) << "\n";
    out << "message: " << singleLine(repro.message) << "\n";
    out << "campaign-seed: " << repro.campaignSeed << "\n";
    out << "case-index: " << repro.caseIndex << "\n";
    out << "case-seed: " << repro.caseSeed << "\n";
    out << "sim-seed: " << repro.simSeed << "\n";
    out << "%% machine\n" << repro.machineText;
    if (!repro.machineText.empty() && repro.machineText.back() != '\n')
        out << "\n";
    out << "%% loop\n" << repro.loopText;
    if (!repro.loopText.empty() && repro.loopText.back() != '\n')
        out << "\n";
    return out.str();
}

ReproducerCase
parseReproducer(const std::string& text)
{
    ReproducerCase repro;
    std::istringstream in(text);
    std::string line;
    enum class Section { kHeader, kMachine, kLoop };
    Section section = Section::kHeader;
    bool saw_code = false;

    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line == "%% machine") {
            section = Section::kMachine;
            continue;
        }
        if (line == "%% loop") {
            section = Section::kLoop;
            continue;
        }
        switch (section) {
        case Section::kHeader: {
            if (line.empty() || line[0] == ';')
                continue;
            const auto colon = line.find(": ");
            if (colon == std::string::npos)
                throw support::Error("reproducer: malformed header line '" +
                                     line + "'");
            const std::string key = line.substr(0, colon);
            const std::string value = line.substr(colon + 2);
            if (key == "code") {
                repro.code = value;
                saw_code = true;
            } else if (key == "message") {
                repro.message = value;
            } else if (key == "campaign-seed") {
                repro.campaignSeed = parseU64(value, key);
            } else if (key == "case-index") {
                repro.caseIndex = parseU64(value, key);
            } else if (key == "case-seed") {
                repro.caseSeed = parseU64(value, key);
            } else if (key == "sim-seed") {
                repro.simSeed = parseU64(value, key);
            } else {
                throw support::Error("reproducer: unknown header key '" +
                                     key + "'");
            }
            break;
        }
        case Section::kMachine:
            repro.machineText += line;
            repro.machineText += '\n';
            break;
        case Section::kLoop:
            repro.loopText += line;
            repro.loopText += '\n';
            break;
        }
    }

    if (!saw_code || repro.machineText.empty() || repro.loopText.empty()) {
        throw support::Error(
            "reproducer: missing code header, machine or loop section");
    }
    return repro;
}

std::string
reproducerFileName(std::uint64_t campaign_seed, std::uint64_t case_index)
{
    return "fuzz_s" + std::to_string(campaign_seed) + "_c" +
           std::to_string(case_index) + ".repro";
}

void
writeTextFile(const std::string& path, const std::string& contents)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw support::Error("cannot open '" + path + "' for writing");
    out << contents;
    if (!out)
        throw support::Error("write to '" + path + "' failed");
}

std::string
readTextFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw support::Error("cannot open '" + path + "'");
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace ims::fuzz
