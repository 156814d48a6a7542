#ifndef IMS_PERFBENCH_TRACE_HPP
#define IMS_PERFBENCH_TRACE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/**
 * In-memory span recorder for the traced run. Every span carries the id of
 * the request it belongs to and the id of its parent span (0 for a root),
 * so the exported file shows the call tree of each request. Per-name
 * totals are kept for every span; only the first `maxStoredSpans` spans
 * are kept for the exported file, so a long run cannot exhaust memory.
 *
 * Single-threaded: the traced replicas run on one thread.
 */
class Tracer
{
  public:
    static constexpr std::size_t kMaxStoredSpans = 200'000;

    Tracer() : origin_(Clock::now()) {}

    /** Open a span; returns its id (never 0). */
    std::uint64_t begin(const char* name, std::uint64_t request,
                        std::uint64_t parent);
    /** Close the innermost open span. */
    void end();

    /** Summed duration and call count of all spans named `name`. */
    double totalSeconds(const std::string& name) const;
    std::uint64_t calls(const std::string& name) const;
    /** Mean duration of one `name` span in milliseconds (0 if none). */
    double meanMs(const std::string& name) const;

    /**
     * Write the stored spans as Chrome trace-event JSON (loads in
     * Perfetto). @throws std::runtime_error when the file cannot be
     * written.
     */
    void writeChromeTrace(const std::string& path) const;

  private:
    struct Span
    {
        const char* name = "";
        std::uint64_t id = 0;
        std::uint64_t request = 0;
        std::uint64_t parent = 0;
        double startUs = 0.0;
        double durationUs = 0.0;
    };
    struct Open
    {
        std::uint64_t id = 0;
        const char* name = "";
        std::uint64_t request = 0;
        std::uint64_t parent = 0;
        Clock::time_point start;
    };
    struct Total
    {
        double seconds = 0.0;
        std::uint64_t calls = 0;
    };

    Clock::time_point origin_;
    std::uint64_t nextId_ = 1;
    std::uint64_t dropped_ = 0;
    std::vector<Open> open_;
    std::vector<Span> spans_;
    std::map<std::string, Total> totals_;
};

/** RAII span: opens on construction, closes on scope exit. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request,
               std::uint64_t parent)
        : tracer_(tracer), id_(tracer.begin(name, request, parent))
    {
    }
    ~ScopedSpan() { tracer_.end(); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer& tracer_;
    std::uint64_t id_;
};

} // namespace perfbench

#endif // IMS_PERFBENCH_TRACE_HPP
