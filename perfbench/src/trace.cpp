#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t
Tracer::begin(const char* name, std::uint64_t request, std::uint64_t parent)
{
    const std::uint64_t id = nextId_++;
    open_.push_back(Open{id, name, request, parent, Clock::now()});
    return id;
}

void
Tracer::end()
{
    const auto now = Clock::now();
    const Open open = open_.back();
    open_.pop_back();
    const double seconds =
        std::chrono::duration<double>(now - open.start).count();
    Total& total = totals_[open.name];
    total.seconds += seconds;
    ++total.calls;
    if (spans_.size() >= kMaxStoredSpans) {
        ++dropped_;
        return;
    }
    spans_.push_back(Span{
        open.name, open.id, open.request, open.parent,
        std::chrono::duration<double, std::micro>(open.start - origin_)
            .count(),
        seconds * 1e6});
}

double
Tracer::totalSeconds(const std::string& name) const
{
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.seconds;
}

std::uint64_t
Tracer::calls(const std::string& name) const
{
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.calls;
}

double
Tracer::meanMs(const std::string& name) const
{
    const std::uint64_t n = calls(name);
    return n == 0 ? 0.0 : totalSeconds(name) * 1e3 / static_cast<double>(n);
}

void
Tracer::writeChromeTrace(const std::string& path) const
{
    std::ofstream out(path);
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":"
        << dropped_ << "},\"traceEvents\":[";
    bool first = true;
    for (const Span& span : spans_) {
        out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << span.startUs
            << ",\"dur\":" << span.durationUs << ",\"args\":{\"id\":"
            << span.id << ",\"parent\":" << span.parent
            << ",\"request\":" << span.request << "}}";
        first = false;
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("cannot write trace file " + path);
}

} // namespace perfbench
