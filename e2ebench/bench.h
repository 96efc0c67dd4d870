/**
 * @file
 * Shared types of the end-to-end benchmark driver: run options, the
 * result every workload returns, and the statistics helpers.
 */

#ifndef E2EBENCH_BENCH_H
#define E2EBENCH_BENCH_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench
{

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out; ///< span file of a traced run ("" = none)
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run measured and checked. */
struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /// Measured but not regression-gated (too host-sensitive to bound;
    /// see README.md): printed and recorded beside the metrics.
    std::vector<Metric> reported;
    /// Diagnostics beside the metrics: (key, raw JSON value).
    std::vector<std::pair<std::string, std::string>> detail;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void report(std::string name, double value, std::string unit)
    {
        reported.push_back({std::move(name), value, std::move(unit)});
    }
    void note(std::string key, std::string json_value)
    {
        detail.emplace_back(std::move(key), std::move(json_value));
    }
    void note(std::string key, double value);
    void note(std::string key, const std::vector<double> &values);
};

/** A run that measured something other than the system (e.g. an
 * open-loop generator that fell behind): reported as invalid, with no
 * result. */
struct InvalidRun : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Exact percentile of raw samples (linear interpolation between the
 * order statistics, as numpy's default). @p p in [0, 100].
 */
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

/** Process peak resident set size in MB (getrusage). */
double peakRssMb();

RunResult runInference(const RunOptions &options);
RunResult runServe(const RunOptions &options);

} // namespace e2ebench

#endif // E2EBENCH_BENCH_H
