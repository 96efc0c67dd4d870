#include "probe.h"

#include <cmath>
#include <cstdint>
#include <utility>

#include "bench.h"
#include "spans.h"

namespace e2ebench
{

namespace
{

volatile int64_t probe_sink = 0; ///< keeps the sweep from being elided

} // namespace

double
hostProbeMs()
{
    static const auto operands = [] {
        std::vector<int32_t> a(1 << 21), b(1 << 21);
        for (size_t i = 0; i < a.size(); ++i) {
            a[i] = static_cast<int32_t>(i * 2654435761u);
            b[i] = static_cast<int32_t>(i * 40503u);
        }
        return std::pair{std::move(a), std::move(b)};
    }();
    const auto &[a, b] = operands;
    const uint64_t t0 = nowNs();
    int64_t acc = 0;
    for (int rep = 0; rep < 4; ++rep)
        for (size_t i = 0; i < a.size(); ++i)
            acc += static_cast<int64_t>(a[i] >> 8) * (b[i] >> 8);
    probe_sink = acc;
    return static_cast<double>(nowNs() - t0) / 1e6;
}

double
hostNormalized(double value, const std::vector<double> &probes_ms,
               double sensitivity)
{
    return value * std::pow(kProbeReferenceMs / percentile(probes_ms, 10.0),
                            sensitivity);
}

} // namespace e2ebench
