/**
 * @file
 * The traced replay of a quantized node: runQNode and
 * MixGemmBackend::gemm rebuilt from their public parts (quantize,
 * im2row, the weight store lookup or a fresh CompressedB, CompressedA,
 * ensureClusterPanels, mixGemm) with a span around each call, and the
 * per-layer metrics computed from those spans.
 */

#ifndef E2EBENCH_LAYERS_H
#define E2EBENCH_LAYERS_H

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bench.h"
#include "runtime/backend.h"
#include "runtime/prepack.h"
#include "runtime/qgraph.h"
#include "spans.h"

namespace e2ebench
{

using mixgemm::ConvSpec;
using mixgemm::DataSizeConfig;
using mixgemm::FaultPolicy;
using mixgemm::NaiveBackend;
using mixgemm::PrepackedWeights;
using mixgemm::QNode;
using mixgemm::QuantParams;
using mixgemm::Tensor;

/** Per-image layer totals of the traced passes (sums over images). */
struct LayerTotals
{
    uint64_t images = 0;
    double node_ns = 0, quantize_ns = 0, im2row_ns = 0, pack_a_ns = 0,
           pack_b_ns = 0, expand_ns = 0, kernel_ns = 0,
           depthwise_kernel_ns = 0, abft_ns = 0;
    double calls = 0, tiles_checked = 0, bytes_packed = 0, ops = 0;
};

/**
 * Replays runQNode / MixGemmBackend::gemm through their public parts
 * with a span around each call. Every GEMM is also run a second time
 * on the same operands with the other ABFT policy (Detect when the
 * workload runs Off and vice versa); that probe is excluded from the
 * node time and only feeds fault.abft_ms.
 */
class TracedRunner
{
  public:
    TracedRunner(SpanLog &log, const PrepackedWeights *prepacked,
                 FaultPolicy policy)
        : log_(log), prepacked_(prepacked), policy_(policy)
    {
    }

    /** One node; returns its output and adds to @ref totals. */
    Tensor<double> node(const QNode &node, const Tensor<double> &input,
                        uint64_t image, int64_t parent);

    /** Time spent in ABFT probes since the last call (not image time). */
    uint64_t takeProbeNs() { return std::exchange(probe_ns_, 0); }

    LayerTotals totals;

  private:
    std::vector<int64_t> gemm(std::span<const int32_t> a,
                              std::span<const int32_t> b, uint64_t m,
                              uint64_t n, uint64_t k,
                              const DataSizeConfig &cfg, bool depthwise,
                              uint64_t image, int64_t parent);

    Tensor<double> quantizeTensor(const Tensor<double> &t,
                                  const QuantParams &params,
                                  uint64_t image, int64_t parent);
    Tensor<double> lower(const Tensor<double> &qa, const ConvSpec &spec,
                         unsigned group, uint64_t image, int64_t parent);

    SpanLog &log_;
    const PrepackedWeights *prepacked_;
    FaultPolicy policy_;
    NaiveBackend naive_; ///< elementwise nodes run no GEMM
    uint64_t probe_ns_ = 0;
};

/**
 * Add the inference-layer metrics (runtime, quant, tensor, bs, gemm,
 * fault), each per traced image. The traced children of
 * runtime.node_ms add up to it; the remainder (int conversion, the
 * requant epilogue, tensor copies) is runtime.epilogue_ms.
 */
void addLayerMetrics(RunResult &result, const LayerTotals &totals);

} // namespace e2ebench

#endif // E2EBENCH_LAYERS_H
