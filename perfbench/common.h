/// \file
/// Shared plumbing of the benchmark runner: clocks, process counters,
/// order statistics, and the result line the runner prints last.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// steady_clock reading in nanoseconds (every span the runner records).
inline std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

inline double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User plus system CPU seconds of the whole process (every thread).
double cpu_seconds();

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// The q-quantile (0 <= q <= 1) of \p values by the nearest-rank rule;
/// 0 for an empty vector.
double quantile(std::vector<double> values, double q);

/// The middle value, or the mean of the two middle values of an even
/// count: a run that fits two timed calls must not report the faster one.
inline double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : (values[mid - 1] + values[mid]) / 2;
}

/// a / b, or 0 when nothing was measured (b == 0).
inline double
ratio(double a, double b)
{
    return b == 0 ? 0.0 : a / b;
}

/// Correctness tally and metrics of one run; print() emits the JSON
/// object that must be the last line of standard output.
class Report {
  public:
    /// Counts one checked operation; a false \p ok is a failure and is
    /// described on stderr.
    bool check(bool ok, const std::string& what);

    /// Counts \p attempted operations of which \p failed failed.
    void tally(std::uint64_t attempted, std::uint64_t failed,
               const std::string& what);

    void metric(const std::string& name, double value,
                const std::string& unit);

    void print() const;

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

}  // namespace perfbench
