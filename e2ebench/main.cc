/**
 * @file
 * End-to-end benchmark driver.
 *
 *   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--trace-out <spans.json>]
 *
 * Runs one workload (resnet18-mixed, mobilenet-mixed, resnet18-abft,
 * serve-smallcnn) for the given number of seconds and prints, as its
 * last line, one JSON object: correct, attempted, failed, the metrics
 * (end-to-end ones untraced, per-layer ones traced) with their units,
 * and diagnostics. Exit codes: 0 result printed, 2 bad arguments or
 * set-up failure, 3 invalid run (open-loop generator fell behind).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>

#include "bench.h"

namespace e2ebench
{

void
RunResult::note(std::string key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    note(std::move(key), std::string(buf));
}

void
RunResult::note(std::string key, const std::vector<double> &values)
{
    std::string json = "[";
    char buf[64];
    for (size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.6f", i ? "," : "", values[i]);
        json += buf;
    }
    note(std::move(key), json + "]");
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank =
        p / 100.0 * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] +
           (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace e2ebench

namespace
{

using e2ebench::Metric;
using e2ebench::RunOptions;
using e2ebench::RunResult;

/** Every per-layer metric, in report order; a workload that does not
 * exercise a layer reports it as 0. */
const Metric kPerLayer[] = {
    {"runtime.node_ms", 0, "ms"},
    {"runtime.epilogue_ms", 0, "ms"},
    {"quant.quantize_ms", 0, "ms"},
    {"tensor.im2row_ms", 0, "ms"},
    {"tensor.pack_a_ms", 0, "ms"},
    {"tensor.pack_b_ms", 0, "ms"},
    {"tensor.bytes_packed_mb", 0, "MB"},
    {"bs.expand_ms", 0, "ms"},
    {"gemm.kernel_ms", 0, "ms"},
    {"gemm.kernel_gops", 0, "Gop/s"},
    {"gemm.depthwise_ms", 0, "ms"},
    {"gemm.calls", 0, "count"},
    {"fault.abft_ms", 0, "ms"},
    {"fault.tiles_checked", 0, "count"},
    {"store.load_ms", 0, "ms"},
    {"store.resident_mb", 0, "MB"},
    {"serve.admit_us", 0, "us"},
    {"serve.queue_wait_ms_p50", 0, "ms"},
    {"serve.queue_wait_ms_p99", 0, "ms"},
    {"serve.exec_ms_p50", 0, "ms"},
    {"serve.deliver_us", 0, "us"},
    {"serve.worker_busy_share", 0, "1"},
    {"serve.attempts_per_request", 0, "1"},
    {"serve.decisions_per_request", 0, "1"},
    {"serve.shed", 0, "count"},
    {"serve.rejected", 0, "count"},
    {"telemetry.observer_us_per_request", 0, "us"},
    {"trace.overhead_pct", 0, "%"},
};

[[noreturn]] void
usage(const char *message)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload "
                 "<resnet18-mixed|mobilenet-mixed|resnet18-abft|"
                 "serve-smallcnn> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n",
                 message);
    std::exit(2);
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage("missing value after the last flag");
        const std::string flag = argv[i];
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
            if (*value == '\0' || *end != '\0')
                usage("--seed takes an unsigned integer");
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value, &end);
            if (*value == '\0' || *end != '\0' ||
                !(options.seconds > 0 && options.seconds <= 3600))
                usage("--seconds takes a number in (0, 3600]");
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            options.trace = value[0] == '1';
        } else if (flag == "--trace-out") {
            options.trace_out = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return options;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string json = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        json += (i ? ",\"" : "\"") + m.name + "\":{\"value\":" +
                number(m.value) + ",\"unit\":\"" + m.unit + "\"}";
    }
    return json + "}";
}

void
printResult(const RunResult &result)
{
    std::string line = "{\"correct\":";
    line += result.correct ? "true" : "false";
    line += ",\"attempted\":" + std::to_string(result.attempted);
    line += ",\"failed\":" + std::to_string(result.failed);
    line += ",\"metrics\":" + metricsJson(result.metrics);
    line += ",\"reported\":" + metricsJson(result.reported);
    line += ",\"detail\":{";
    for (size_t i = 0; i < result.detail.size(); ++i)
        line += (i ? ",\"" : "\"") + result.detail[i].first +
                "\":" + result.detail[i].second;
    line += "}}";
    std::puts(line.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const RunOptions options = parseArgs(argc, argv);
    RunResult result;
    try {
        if (options.workload == "resnet18-mixed" ||
            options.workload == "mobilenet-mixed" ||
            options.workload == "resnet18-abft")
            result = e2ebench::runInference(options);
        else if (options.workload == "serve-smallcnn")
            result = e2ebench::runServe(options);
        else
            usage(("unknown workload " + options.workload).c_str());
    } catch (const e2ebench::InvalidRun &e) {
        std::fprintf(stderr, "e2ebench: invalid run: %s\n", e.what());
        return 3;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 2;
    }

    if (options.trace) {
        std::set<std::string> have;
        for (const Metric &m : result.metrics)
            have.insert(m.name);
        std::string absent;
        for (const Metric &m : kPerLayer)
            if (!have.count(m.name)) {
                result.metrics.push_back(m);
                absent += (absent.empty() ? "\"" : ",\"") + m.name + "\"";
            }
        result.note("not_exercised", "[" + absent + "]");
    }
    result.report("failed_share",
                  static_cast<double>(result.failed) /
                      static_cast<double>(
                          std::max<uint64_t>(1, result.attempted)),
                  "1");
    for (const Metric &m : result.metrics)
        std::printf("e2ebench: %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const Metric &m : result.reported)
        std::printf("e2ebench: %-34s %14.6g %s (not gated)\n",
                    m.name.c_str(), m.value, m.unit.c_str());
    std::fflush(stdout);
    printResult(result);
    return 0;
}
