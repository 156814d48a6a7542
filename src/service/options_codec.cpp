#include "service/options_codec.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "support/error.hpp"
#include "support/parse_number.hpp"

namespace ims::service {

namespace {

/** Shortest decimal form that round-trips the double (cf. ir/printer). */
std::string
formatDoubleKey(double value)
{
    if (std::isnan(value))
        return "nan";
    if (std::isinf(value))
        return std::signbit(value) ? "-inf" : "inf";
    char buffer[64];
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
        double reparsed = 0.0;
        std::sscanf(buffer, "%lf", &reparsed);
        if (reparsed == value &&
            std::signbit(reparsed) == std::signbit(value))
            break;
    }
    return buffer;
}

std::string
tripsText(const std::vector<int>& trips)
{
    std::string out;
    for (std::size_t i = 0; i < trips.size(); ++i)
        out += (i > 0 ? "," : "") + std::to_string(trips[i]);
    return out.empty() ? "-" : out;
}

/** All of `text` as a T; std::invalid_argument (reported by the caller
 *  as a bad value) otherwise. */
template <typename T>
T
wholeNumber(const std::string& text)
{
    T value{};
    if (!support::parseNumber(text, value))
        throw std::invalid_argument(text);
    return value;
}

std::vector<int>
parseTrips(const std::string& text)
{
    std::vector<int> trips;
    if (text == "-")
        return trips;
    std::string item;
    for (const char c : text + ",") {
        if (c == ',') {
            trips.push_back(wholeNumber<int>(item));
            if (trips.back() > kMaxVerifySimTrip)
                throw std::invalid_argument(item);
            item.clear();
        } else {
            item += c;
        }
    }
    return trips;
}

} // namespace

std::string
canonicalOptionsText(const core::PipelinerOptions& options)
{
    const auto& schedule = options.schedule;
    std::ostringstream out;
    out << "strategy " << sched::schedulerStrategyName(schedule.strategy)
        << "\n"
        << "budget_ratio " << formatDoubleKey(schedule.search.budgetRatio)
        << "\n"
        << "max_ii_increase " << schedule.search.maxIiIncrease << "\n"
        << "priority " << sched::prioritySchemeName(schedule.priority)
        << "\n"
        << "forward_progress " << (schedule.forwardProgressRule ? 1 : 0)
        << "\n"
        << "random_seed " << schedule.randomSeed << "\n"
        << "exact_node_budget " << schedule.exactNodeBudget << "\n"
        << "delay_mode " << graph::delayModeName(options.graph.delayMode)
        << "\n"
        << "dsa_form " << (options.graph.dsaForm ? 1 : 0) << "\n"
        << "verify " << (options.verify ? 1 : 0) << "\n"
        << "verify_sim " << (options.verifySim ? 1 : 0) << "\n"
        << "verify_sim_trips " << tripsText(options.verifySimTrips) << "\n"
        << "verify_sim_seed " << options.verifySimSeed << "\n";
    return out.str();
}

core::PipelinerOptions
parseOptionsText(const std::string& text)
{
    core::PipelinerOptions options;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        const auto space = line.find(' ');
        support::check(space != std::string::npos, [&] {
            return "options text line " + std::to_string(line_no) +
                   ": expected 'key value'";
        });
        const std::string key = line.substr(0, space);
        const std::string value = line.substr(space + 1);
        try {
            if (key == "strategy") {
                const auto strategy = sched::schedulerStrategyByName(value);
                support::check(strategy.has_value(), [&] {
                    return "unknown strategy '" + value + "'";
                });
                options.schedule.strategy = *strategy;
            } else if (key == "budget_ratio") {
                std::size_t used = 0;
                options.schedule.search.budgetRatio = std::stod(value, &used);
                if (used != value.size())
                    throw std::invalid_argument(value);
            } else if (key == "max_ii_increase") {
                options.schedule.search.maxIiIncrease = wholeNumber<int>(value);
            } else if (key == "priority") {
                const auto scheme = sched::prioritySchemeByName(value);
                support::check(scheme.has_value(), [&] {
                    return "unknown priority '" + value + "'";
                });
                options.schedule.priority = *scheme;
            } else if (key == "forward_progress") {
                options.schedule.forwardProgressRule = value == "1";
            } else if (key == "random_seed") {
                options.schedule.randomSeed =
                    wholeNumber<std::uint64_t>(value);
            } else if (key == "exact_node_budget") {
                options.schedule.exactNodeBudget =
                    wholeNumber<std::int64_t>(value);
            } else if (key == "delay_mode") {
                const auto mode = graph::delayModeByName(value);
                support::check(mode.has_value(), [&] {
                    return "unknown delay mode '" + value + "'";
                });
                options.graph.delayMode = *mode;
            } else if (key == "dsa_form") {
                options.graph.dsaForm = value == "1";
            } else if (key == "verify") {
                options.verify = value == "1";
            } else if (key == "verify_sim") {
                options.verifySim = value == "1";
            } else if (key == "verify_sim_trips") {
                options.verifySimTrips = parseTrips(value);
            } else if (key == "verify_sim_seed") {
                options.verifySimSeed = wholeNumber<std::uint64_t>(value);
            } else {
                throw support::Error("unknown key '" + key + "'");
            }
        } catch (const support::Error&) {
            throw;
        } catch (const std::exception&) {
            throw support::Error("options text line " +
                                 std::to_string(line_no) + ": bad value '" +
                                 value + "' for '" + key + "'");
        }
    }
    return options;
}

} // namespace ims::service
