#include "support/telemetry.hpp"

#include <array>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <functional>
#include <limits>

#include "support/error.hpp"
#include "support/parse_number.hpp"
#include "support/table.hpp"

namespace ims::support {

namespace {

constexpr std::array<const char*, kNumPhases> kPhaseNames = {
    "graph_build", "mii_bounds", "ii_attempt", "list_schedule",
    "codegen",     "lifetimes",  "regalloc",   "verify",
};

/** Name <-> member map keeping the JSON schema and Counters in lockstep. */
struct CounterField
{
    const char* name;
    std::uint64_t Counters::* field;
};

constexpr std::array<CounterField, 12> kCounterFields = {{
    {"scc_edge_visits", &Counters::sccEdgeVisits},
    {"res_mii_inspections", &Counters::resMiiInspections},
    {"min_dist_inner_steps", &Counters::minDistInnerSteps},
    {"min_dist_invocations", &Counters::minDistInvocations},
    {"height_r_inner_steps", &Counters::heightRInnerSteps},
    {"estart_predecessor_visits", &Counters::estartPredecessorVisits},
    {"estart_incremental_hits", &Counters::estartIncrementalHits},
    {"find_time_slot_probes", &Counters::findTimeSlotProbes},
    {"schedule_steps", &Counters::scheduleSteps},
    {"unschedule_steps", &Counters::unscheduleSteps},
    {"mrt_mask_probes", &Counters::mrtMaskProbes},
    {"mrt_slot_scans", &Counters::mrtSlotScans},
}};

/**
 * Round-trippable double for JSON. JSON has no NaN/Infinity literals, so
 * non-finite values must never reach the printf path (%.17g would emit
 * bare "nan"/"inf" and corrupt the document): NaN becomes null (an absent
 * measurement) and infinities clamp to +/-DBL_MAX. parseNumber() maps
 * null back to a quiet NaN, so emit/parse/emit is stable.
 */
std::string
formatJsonDouble(double value)
{
    if (std::isnan(value))
        return "null";
    if (std::isinf(value))
        value = std::copysign(std::numeric_limits<double>::max(), value);
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

} // namespace

void
appendJsonString(std::string& out, std::string_view text)
{
    out += '"';
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

std::string
jsonString(std::string_view text)
{
    std::string out;
    appendJsonString(out, text);
    return out;
}

namespace {

/**
 * Minimal recursive-descent parser for the subset of JSON the telemetry
 * schema uses (objects, arrays, strings, numbers, booleans). Kept local to
 * this file; the library has no general JSON dependency.
 */
class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    /** Parse one value and require end of input. */
    void
    parseDocument(const std::function<void(JsonParser&)>& object_body)
    {
        skipSpace();
        parseObject(object_body);
        skipSpace();
        check(pos_ == text_.size(), "trailing characters");
    }

    /** At an object: calls `body` once per key (cursor on the value). */
    void
    parseObject(const std::function<void(JsonParser&)>& body)
    {
        expect('{');
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return;
        }
        while (true) {
            skipSpace();
            key_ = parseString();
            skipSpace();
            expect(':');
            skipSpace();
            body(*this);
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return;
        }
    }

    /** At an array: calls `element` once per element. */
    void
    parseArray(const std::function<void(JsonParser&)>& element)
    {
        expect('[');
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return;
        }
        while (true) {
            skipSpace();
            element(*this);
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return;
        }
    }

    /** Key of the object entry currently being parsed. */
    const std::string& key() const { return key_; }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            check(pos_ < text_.size(), "unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                check(pos_ < text_.size(), "unterminated escape");
                const char e = text_[pos_++];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    check(pos_ + 4 <= text_.size(), "bad \\u escape");
                    const int code =
                        std::stoi(text_.substr(pos_, 4), nullptr, 16);
                    pos_ += 4;
                    check(code < 0x80, "non-ASCII \\u escape unsupported");
                    out += static_cast<char>(code);
                    break;
                }
                default: fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
    }

    double
    parseNumber()
    {
        // formatJsonDouble emits null for NaN; read it back as one.
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return std::numeric_limits<double>::quiet_NaN();
        }
        // strtod, not std::stod: stod throws out_of_range on denormal
        // values instead of returning the rounded result.
        const std::string literal = numberLiteral();
        char* end = nullptr;
        const double value = std::strtod(literal.c_str(), &end);
        check(end == literal.c_str() + literal.size(), "expected number");
        return value;
    }

    /**
     * An integer read exactly into T from its literal: a fraction, an
     * exponent, a sign on an unsigned T or a value outside T's range is
     * an error, never a rounded or wrapped value.
     */
    template <typename T>
    T
    parseInteger()
    {
        const std::string literal = numberLiteral();
        T value{};
        check(support::parseNumber(literal, value),
              "'" + key_ + "' is not an in-range integer: " + literal);
        return value;
    }

    bool
    parseBool()
    {
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            return true;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            return false;
        }
        fail("expected boolean");
    }

    /** Skip any single value (unknown keys stay forward-compatible). */
    void
    skipValue()
    {
        skipSpace();
        const char c = peek();
        if (c == '{')
            parseObject([](JsonParser& p) { p.skipValue(); });
        else if (c == '[')
            parseArray([](JsonParser& p) { p.skipValue(); });
        else if (c == '"')
            parseString();
        else if (c == 't' || c == 'f')
            parseBool();
        else
            parseNumber();
    }

  private:
    /** Consume the characters a JSON number literal may contain. */
    std::string
    numberLiteral()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        check(pos_ > start, "expected number");
        return text_.substr(start, pos_ - start);
    }

    char
    peek() const
    {
        check(pos_ < text_.size(), "unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        check(pos_ < text_.size() && text_[pos_] == c,
              std::string("expected '") + c + "'");
        ++pos_;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    static void
    check(bool condition, const std::string& message)
    {
        if (!condition)
            fail(message);
    }

    [[noreturn]] static void
    fail(const std::string& message)
    {
        throw Error("telemetry JSON: " + message);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    std::string key_;
};

} // namespace

const char*
phaseName(Phase phase)
{
    return kPhaseNames[static_cast<int>(phase)];
}

std::optional<Phase>
phaseByName(std::string_view name)
{
    for (int i = 0; i < kNumPhases; ++i) {
        if (name == kPhaseNames[i])
            return static_cast<Phase>(i);
    }
    return std::nullopt;
}

PhaseTimer::PhaseTimer(TelemetrySink* sink, Phase phase, int detail)
    : sink_(sink)
{
    sample_.phase = phase;
    sample_.detail = detail;
    if (sink_ != nullptr)
        start_ = std::chrono::steady_clock::now();
}

PhaseTimer::~PhaseTimer()
{
    if (sink_ == nullptr)
        return;
    sample_.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    sink_->onPhase(sample_);
}

double
PipelineTelemetry::phaseSeconds(Phase phase) const
{
    double total = 0.0;
    for (const auto& sample : phases) {
        if (sample.phase == phase)
            total += sample.seconds;
    }
    return total;
}

int
PipelineTelemetry::phaseCalls(Phase phase) const
{
    int calls = 0;
    for (const auto& sample : phases) {
        if (sample.phase == phase)
            ++calls;
    }
    return calls;
}

std::string
PipelineTelemetry::toJson() const
{
    std::string out = "{";
    out += "\"schema\":\"ims.telemetry.v1\",";
    out += "\"loop\":";
    appendJsonString(out, loop);
    out += ",\"ops\":" + std::to_string(ops);
    out += ",\"succeeded\":" + std::string(succeeded ? "true" : "false");
    out += ",\"res_mii\":" + std::to_string(resMii);
    out += ",\"mii\":" + std::to_string(mii);
    out += ",\"ii\":" + std::to_string(ii);
    out += ",\"attempts\":" + std::to_string(attempts);
    out += ",\"schedule_length\":" + std::to_string(scheduleLength);
    out += ",\"budget\":" + std::to_string(budget);
    out += ",\"steps_total\":" + std::to_string(stepsTotal);
    out += ",\"backtracks\":" + std::to_string(backtracks);
    out += ",\"scheduler\":";
    appendJsonString(out, scheduler);
    out += ",\"ii_strategy\":";
    appendJsonString(out, iiStrategy);
    out += ",\"ii_workers\":" + std::to_string(iiWorkers);
    out += ",\"ii_attempts_proven_infeasible\":" +
           std::to_string(iiAttemptsProvenInfeasible);
    out += ",\"ii_search_wall_seconds\":" +
           formatJsonDouble(iiSearchWallSeconds);
    out += ",\"wall_seconds\":" + formatJsonDouble(wallSeconds);
    out += ",\"phases\":[";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const auto& sample = phases[i];
        if (i > 0)
            out += ',';
        out += "{\"name\":\"";
        out += phaseName(sample.phase);
        out += "\",\"detail\":" + std::to_string(sample.detail);
        out += ",\"seconds\":" + formatJsonDouble(sample.seconds);
        out += ",\"ok\":" + std::string(sample.succeeded ? "true" : "false");
        out += '}';
    }
    out += "],\"counters\":{";
    for (std::size_t i = 0; i < kCounterFields.size(); ++i) {
        if (i > 0)
            out += ',';
        out += '"';
        out += kCounterFields[i].name;
        out += "\":" + std::to_string(counters.*kCounterFields[i].field);
    }
    out += "}}";
    return out;
}

PipelineTelemetry
parseTelemetryJson(const std::string& json)
{
    PipelineTelemetry t;
    JsonParser parser(json);
    parser.parseDocument([&t](JsonParser& p) {
        const std::string& key = p.key();
        if (key == "schema") {
            const std::string schema = p.parseString();
            if (schema != "ims.telemetry.v1")
                throw Error("telemetry JSON: unknown schema '" + schema +
                            "'");
        } else if (key == "loop") {
            t.loop = p.parseString();
        } else if (key == "ops") {
            t.ops = p.parseInteger<int>();
        } else if (key == "succeeded") {
            t.succeeded = p.parseBool();
        } else if (key == "res_mii") {
            t.resMii = p.parseInteger<int>();
        } else if (key == "mii") {
            t.mii = p.parseInteger<int>();
        } else if (key == "ii") {
            t.ii = p.parseInteger<int>();
        } else if (key == "attempts") {
            t.attempts = p.parseInteger<int>();
        } else if (key == "schedule_length") {
            t.scheduleLength = p.parseInteger<int>();
        } else if (key == "budget") {
            t.budget = p.parseInteger<std::int64_t>();
        } else if (key == "steps_total") {
            t.stepsTotal = p.parseInteger<std::int64_t>();
        } else if (key == "backtracks") {
            t.backtracks = p.parseInteger<std::int64_t>();
        } else if (key == "scheduler") {
            t.scheduler = p.parseString();
        } else if (key == "ii_strategy") {
            t.iiStrategy = p.parseString();
        } else if (key == "ii_workers") {
            t.iiWorkers = p.parseInteger<int>();
        } else if (key == "ii_attempts_proven_infeasible") {
            t.iiAttemptsProvenInfeasible = p.parseInteger<int>();
        } else if (key == "ii_search_wall_seconds") {
            t.iiSearchWallSeconds = p.parseNumber();
        } else if (key == "wall_seconds") {
            t.wallSeconds = p.parseNumber();
        } else if (key == "phases") {
            p.parseArray([&t](JsonParser& q) {
                PhaseSample sample;
                q.parseObject([&sample](JsonParser& r) {
                    const std::string& field = r.key();
                    if (field == "name") {
                        const std::string name = r.parseString();
                        const auto phase = phaseByName(name);
                        if (!phase)
                            throw Error("telemetry JSON: unknown phase '" +
                                        name + "'");
                        sample.phase = *phase;
                    } else if (field == "detail") {
                        sample.detail = r.parseInteger<int>();
                    } else if (field == "seconds") {
                        sample.seconds = r.parseNumber();
                    } else if (field == "ok") {
                        sample.succeeded = r.parseBool();
                    } else {
                        r.skipValue();
                    }
                });
                t.phases.push_back(sample);
            });
        } else if (key == "counters") {
            p.parseObject([&t](JsonParser& q) {
                for (const auto& field : kCounterFields) {
                    if (q.key() == field.name) {
                        t.counters.*field.field =
                            q.parseInteger<std::uint64_t>();
                        return;
                    }
                }
                q.skipValue();
            });
        } else {
            p.skipValue();
        }
    });
    return t;
}

TextTable
telemetryTable(const std::vector<PipelineTelemetry>& records)
{
    TextTable table("pipeline telemetry");
    table.addHeader({"loop", "ops", "MII", "II", "att", "steps", "backtr",
                     "graph ms", "mii ms", "sched ms", "codegen ms",
                     "regalloc ms", "total ms"});
    const auto ms = [](double seconds) {
        return formatDouble(seconds * 1e3, 3);
    };
    for (const auto& t : records) {
        table.addRow({t.loop, std::to_string(t.ops), std::to_string(t.mii),
                      std::to_string(t.ii), std::to_string(t.attempts),
                      std::to_string(t.stepsTotal),
                      std::to_string(t.backtracks),
                      ms(t.phaseSeconds(Phase::kGraphBuild)),
                      ms(t.phaseSeconds(Phase::kMiiBounds)),
                      ms(t.phaseSeconds(Phase::kIiAttempt) +
                         t.phaseSeconds(Phase::kListSchedule)),
                      ms(t.phaseSeconds(Phase::kCodegen) +
                         t.phaseSeconds(Phase::kLifetimes)),
                      ms(t.phaseSeconds(Phase::kRegAlloc)),
                      ms(t.wallSeconds)});
    }
    return table;
}

void
TelemetryRecorder::onPhase(const PhaseSample& sample)
{
    record_.phases.push_back(sample);
}

void
TelemetryRecorder::onCounters(const Counters& delta)
{
    record_.counters += delta;
}

} // namespace ims::support
