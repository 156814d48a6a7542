#include "common.hpp"

#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double
peakRssMb(const std::string& pid)
{
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

double
windowedQuantile(const std::vector<double>& values, double q)
{
    constexpr std::size_t kWindow = 1000;
    const std::size_t windows =
        std::max<std::size_t>(1, values.size() / kWindow);
    std::vector<double> per_window;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto first =
            values.begin() + static_cast<std::ptrdiff_t>(w * kWindow);
        const auto last = w + 1 == windows
                              ? values.end()
                              : first + static_cast<std::ptrdiff_t>(kWindow);
        per_window.push_back(quantile(std::vector<double>(first, last), q));
    }
    return quantile(per_window, 0.5);
}

void
addLatencyMetrics(Outcome& outcome, const std::vector<double>& latencies_ms,
                  double slo_ms, std::uint64_t attempted)
{
    std::size_t within = 0;
    for (const double latency : latencies_ms)
        within += latency <= slo_ms ? 1 : 0;
    outcome.metrics["latency_p50_ms"] = {windowedQuantile(latencies_ms, 0.5),
                                         "ms"};
    std::cout << "latency p50 " << outcome.metrics["latency_p50_ms"].value
              << " ms, p90 " << windowedQuantile(latencies_ms, 0.9)
              << " ms, p99 " << windowedQuantile(latencies_ms, 0.99)
              << " ms over " << latencies_ms.size() << " samples\n";
    outcome.metrics["slo_met_share"] = {
        attempted == 0 ? 0.0
                       : static_cast<double>(within) /
                             static_cast<double>(attempted),
        "share"};
}

} // namespace perfbench
