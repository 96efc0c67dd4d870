/**
 * @file
 * Host-speed probe: a fixed integer multiply-accumulate sweep over
 * 16 MB, owned by the benchmark so no change to the library moves it.
 *
 * The benchmark host is shared: other tenants' work slows everything
 * on it in episodes lasting from seconds to whole runs (1.3-1.6x on the
 * reference host, Intel Xeon, 4 vCPUs), which no statistic of a single
 * run can filter out. The harness times this probe between images (or
 * between serving slices and set-ups) and scales its gated times by how
 * fast the probe ran in the same run, so the gated numbers track the
 * code and not the neighbours.
 */

#ifndef E2EBENCH_PROBE_H
#define E2EBENCH_PROBE_H

#include <vector>

namespace e2ebench
{

/** Probe time on the reference host when it is quiet. */
constexpr double kProbeReferenceMs = 7.3;

/** Run the probe once; returns its wall time in ms. */
double hostProbeMs();

/**
 * A time measured in a run (@p value, any unit) rescaled toward the
 * reference host speed: value times (kProbeReferenceMs over the run's
 * 10th-percentile probe time) to the power @p sensitivity. The
 * sensitivity is the workload's own: how much it slows when the probe
 * slows (1 = as much as the probe). The workloads slow 1.15-1.6x when
 * the probe slows 1.65x; each one's value is the exponent that gave the
 * smallest worst-case run-to-run spread over the 10-seed sets in
 * README.md.
 */
double hostNormalized(double value, const std::vector<double> &probes_ms,
                      double sensitivity);

} // namespace e2ebench

#endif // E2EBENCH_PROBE_H
