/**
 * @file
 * Shared types of the repository benchmark: the command-line options
 * of one run, the report it prints, and the two workload drivers.
 *
 * A run measures one workload for a fixed number of seconds and prints
 * one JSON object: end-to-end metrics from an untraced run, or the
 * per-layer ledger from a traced run (see README.md in this directory).
 */

#ifndef DSP_PERFBENCH_PERFBENCH_HH
#define DSP_PERFBENCH_PERFBENCH_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench
{

/** Pool and client threads of every workload: the reference machine's
 *  core count, fixed so the workload is the same on every host. */
constexpr int kThreads = 4;

/** Set-up is repeated this many times per run; setup_s is the median. */
constexpr int kSetupReps = 5;

/** Span events a traced run may retain before it stops early (bounds
 *  the traced run's memory at roughly 100 MB). */
constexpr std::size_t kMaxTraceEvents = 400'000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for sockets, cache dirs and access logs. */
    std::string workdir;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one run prints. */
struct Report
{
    long attempted = 0;
    long failed = 0;
    /** False on any failed operation or on drift of an exact total. */
    bool correct = true;
    std::vector<Metric> metrics;
    /** One line per failure, for stderr. */
    std::vector<std::string> problems;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    void
    fail(std::string why)
    {
        ++failed;
        correct = false;
        if (problems.size() < 20)
            problems.push_back(std::move(why));
    }
};

Report runSweep(const Options &opts);
/** serve-hot (@p cold false) or serve-cold (@p cold true). */
Report runServe(const Options &opts, bool cold);

// ---------------------------------------------------------------------
// Small shared helpers
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linear-interpolated quantile @p q in [0,1] (0 when empty). */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Peak resident set of this process in MB. */
inline double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench

#endif // DSP_PERFBENCH_PERFBENCH_HH
