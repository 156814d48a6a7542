#include "ir/parser.hpp"

#include <cctype>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <vector>

#include "ir/loop_builder.hpp"
#include "support/error.hpp"
#include "support/parse_number.hpp"
#include "support/text.hpp"

namespace ims::ir {

namespace {

using support::cleanLine;
using support::splitWords;

[[noreturn]] void
fail(int line_no, const std::string& message)
{
    throw support::Error("line " + std::to_string(line_no) + ": " + message);
}

/** Parse "name" or "name[d]" into (name, distance). */
std::pair<std::string, int>
parseRegRef(const std::string& token, int line_no)
{
    const auto bracket = token.find('[');
    if (bracket == std::string::npos)
        return {token, 0};
    if (token.back() != ']')
        fail(line_no, "malformed register reference '" + token + "'");
    const std::string name = token.substr(0, bracket);
    const std::string dist =
        token.substr(bracket + 1, token.size() - bracket - 2);
    int distance = 0;
    if (!support::parseNumber(dist, distance))
        fail(line_no, "bad distance in '" + token + "'");
    return {name, distance};
}

} // namespace

Loop
parseLoop(const std::string& text)
{
    std::istringstream in(text);
    std::string raw;
    int line_no = 0;
    std::optional<LoopBuilder> builder;

    while (std::getline(in, raw)) {
        ++line_no;
        const std::string line = cleanLine(raw);
        if (line.empty())
            continue;

        auto words = splitWords(line);
        if (!builder) {
            if (words.size() != 2 || words[0] != "loop")
                fail(line_no, "expected 'loop <name>' as first directive");
            builder.emplace(words[1]);
            continue;
        }

        if (words[0] == "array") {
            if (words.size() != 2)
                fail(line_no, "expected 'array <name>'");
            // Arrays are created lazily on first reference; a declaration
            // without any reference is accepted by touching the symbol via
            // a throwaway reference path below. Declarations are optional.
            continue;
        }
        if (words[0] == "livein" || words[0] == "recurrence" ||
            words[0] == "predicate") {
            if (words.size() != 2)
                fail(line_no, "expected '" + words[0] + " <name>'");
            builder->liveIn(words[1], words[0] == "predicate");
            continue;
        }

        // Operation line: <dest> = <opcode> operands...
        if (words.size() < 3 || words[1] != "=")
            fail(line_no, "expected '<dest> = <opcode> ...'");
        const std::string dest = words[0] == "_" ? "" : words[0];
        const auto opcode = opcodeFromName(words[2]);
        if (!opcode)
            fail(line_no, "unknown opcode '" + words[2] + "'");

        // Re-join the operand tail and split on commas / keywords.
        std::string tail;
        for (std::size_t i = 3; i < words.size(); ++i)
            tail += (i > 3 ? " " : "") + words[i];

        // Extract "if <reg>" guard.
        std::optional<Operand> guard;
        const auto if_pos = tail.find(" if ");
        std::string guard_text;
        if (if_pos != std::string::npos) {
            guard_text = cleanLine(tail.substr(if_pos + 4));
            tail = cleanLine(tail.substr(0, if_pos));
        } else if (tail.rfind("if ", 0) == 0) {
            guard_text = cleanLine(tail.substr(3));
            tail.clear();
        }

        // Extract "@ <array> <offset> [stride]" memory reference.
        struct MemSpec
        {
            std::string array;
            int offset;
            int stride;
        };
        std::optional<MemSpec> mem;
        const auto at_pos = tail.find('@');
        if (at_pos != std::string::npos) {
            auto mem_words = splitWords(tail.substr(at_pos + 1));
            if (mem_words.size() != 2 && mem_words.size() != 3)
                fail(line_no, "expected '@ <array> <offset> [stride]'");
            mem = MemSpec{mem_words[0], 0, 1};
            if (!support::parseNumber(mem_words[1], mem->offset) ||
                (mem_words.size() == 3 &&
                 !support::parseNumber(mem_words[2], mem->stride)))
                fail(line_no, "bad memory offset/stride");
            tail = cleanLine(tail.substr(0, at_pos));
        }

        // Parse comma-separated operands.
        std::vector<Operand> operands;
        std::string token;
        std::istringstream operand_in(tail);
        while (std::getline(operand_in, token, ',')) {
            token = cleanLine(token);
            if (token.empty())
                continue;
            if (token[0] == '#') {
                // strtod instead of std::stod: stod throws out_of_range
                // for denormals (e.g. "5e-324"), which the printer emits
                // for subnormal immediates; strtod returns the rounded
                // value, keeping print -> parse lossless.
                const std::string literal = token.substr(1);
                char* end = nullptr;
                const double value = std::strtod(literal.c_str(), &end);
                if (end == literal.c_str() || *end != '\0')
                    fail(line_no, "bad immediate '" + token + "'");
                operands.push_back(Operand::makeImm(value));
            } else {
                auto [name, distance] = parseRegRef(token, line_no);
                try {
                    operands.push_back(builder->reg(name, distance));
                } catch (const support::Error& e) {
                    fail(line_no, e.what());
                }
            }
        }

        if (!guard_text.empty()) {
            auto [name, distance] = parseRegRef(guard_text, line_no);
            try {
                guard = builder->reg(name, distance);
            } catch (const support::Error& e) {
                fail(line_no, e.what());
            }
        }

        try {
            if (*opcode == Opcode::kLoad) {
                if (!mem)
                    fail(line_no, "load requires '@ <array> <offset>'");
                if (operands.size() != 1)
                    fail(line_no, "load takes one address operand");
                if (guard) {
                    builder->loadIf(dest, mem->array, mem->offset,
                                    operands[0], *guard, mem->stride);
                } else {
                    builder->load(dest, mem->array, mem->offset,
                                  operands[0], "", mem->stride);
                }
            } else if (*opcode == Opcode::kStore) {
                if (!mem)
                    fail(line_no, "store requires '@ <array> <offset>'");
                if (operands.size() != 2)
                    fail(line_no, "store takes address and value operands");
                if (guard) {
                    builder->storeIf(mem->array, mem->offset, operands[0],
                                     operands[1], *guard, mem->stride);
                } else {
                    builder->store(mem->array, mem->offset, operands[0],
                                   operands[1], "", mem->stride);
                }
            } else if (guard) {
                builder->opIf(*opcode, dest, std::move(operands), *guard);
            } else {
                builder->op(*opcode, dest, std::move(operands));
            }
        } catch (const support::Error& e) {
            fail(line_no, e.what());
        }
    }

    support::check(builder.has_value(), "empty loop text");
    return builder->build();
}

} // namespace ims::ir
