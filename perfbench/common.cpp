#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double
cpu_seconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
    std::nth_element(values.begin(), values.begin() + index, values.end());
    return values[index];
}

bool
Report::check(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
    return ok;
}

void
Report::tally(std::uint64_t attempted, std::uint64_t failed,
              const std::string& what)
{
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
        std::fprintf(stderr, "FAIL: %s (%llu of %llu)\n", what.c_str(),
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(attempted));
    }
}

void
Report::metric(const std::string& name, double value, const std::string& unit)
{
    metrics_.push_back({name, value, unit});
}

void
Report::print() const
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric& m = metrics_[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

}  // namespace perfbench
