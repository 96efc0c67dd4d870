#include "layers.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "gemm/mixgemm.h"
#include "quant/quantizer.h"
#include "tensor/conv.h"
#include "tensor/packing.h"

namespace e2ebench
{

using namespace mixgemm;

namespace
{

std::vector<int32_t>
toInt(const Tensor<double> &t)
{
    std::vector<int32_t> out(t.size());
    for (size_t i = 0; i < t.size(); ++i)
        out[i] = static_cast<int32_t>(std::lround(t[i]));
    return out;
}

DataSizeConfig
configOf(const QNode &node)
{
    return DataSizeConfig{node.a_params.bits, node.w_params.bits,
                          node.a_params.is_signed, node.w_params.is_signed};
}

} // namespace

Tensor<double>
TracedRunner::quantizeTensor(const Tensor<double> &t,
                             const QuantParams &params, uint64_t image,
                             int64_t parent)
{
    ScopedSpan span(log_, "quant.quantize", image, parent,
                    totals.quantize_ns);
    Tensor<double> q(t.shape());
    for (size_t i = 0; i < t.size(); ++i)
        q[i] = static_cast<double>(quantize(t[i], params));
    return q;
}

Tensor<double>
TracedRunner::lower(const Tensor<double> &qa, const ConvSpec &spec,
                    unsigned group, uint64_t image, int64_t parent)
{
    ScopedSpan span(log_, "tensor.im2row", image, parent,
                    totals.im2row_ns);
    return im2row(qa, spec, group);
}

std::vector<int64_t>
TracedRunner::gemm(std::span<const int32_t> a, std::span<const int32_t> b,
                   uint64_t m, uint64_t n, uint64_t k,
                   const DataSizeConfig &cfg, bool depthwise,
                   uint64_t image, int64_t parent)
{
    const BsGeometry geometry = geometryForK(computeBsGeometry(cfg), k);
    BlockingParams blocking = BlockingParams::paperDefaults();
    blocking.threads = 1;
    blocking.fault_policy = policy_;

    // B: the store's prepacked panels, or a fresh pack on a miss
    // (depthwise columns are not in the store).
    std::optional<CompressedB> fresh_b;
    const CompressedB *pb = nullptr;
    {
        ScopedSpan span(log_, "tensor.pack_b", image, parent,
                        totals.pack_b_ns);
        pb = prepacked_ ? prepacked_->find(b.data(), k, n, cfg) : nullptr;
        if (!pb)
            pb = &fresh_b.emplace(b, k, n, geometry);
    }
    std::optional<CompressedA> ca;
    {
        ScopedSpan span(log_, "tensor.pack_a", image, parent,
                        totals.pack_a_ns);
        ca.emplace(a, m, k, geometry);
    }
    {
        ScopedSpan span(log_, "bs.expand", image, parent, totals.expand_ns);
        ca->ensureClusterPanels();
        pb->ensureClusterPanels();
    }
    MixGemmResult result;
    double kernel_ns = 0;
    {
        ScopedSpan span(log_, "gemm.kernel", image, parent, kernel_ns);
        result = mixGemm(*ca, *pb, blocking);
    }
    totals.kernel_ns += kernel_ns;
    if (depthwise)
        totals.depthwise_kernel_ns += kernel_ns;
    totals.calls += 1;
    totals.ops += 2.0 * static_cast<double>(m * n * k);
    totals.bytes_packed += static_cast<double>(
        ca->bytes() + (fresh_b ? fresh_b->bytes() : 0));

    // ABFT probe: the same operands under the other policy.
    BlockingParams probe_blocking = blocking;
    probe_blocking.fault_policy =
        policy_ == FaultPolicy::Off ? FaultPolicy::Detect : FaultPolicy::Off;
    double probe_ns = 0;
    MixGemmResult probe;
    {
        ScopedSpan span(log_, "fault.abft_probe", image, parent, probe_ns);
        probe = mixGemm(*ca, *pb, probe_blocking);
    }
    probe_ns_ += static_cast<uint64_t>(probe_ns);
    const bool detect_main = policy_ != FaultPolicy::Off;
    totals.abft_ns += detect_main ? kernel_ns - probe_ns : probe_ns - kernel_ns;
    totals.tiles_checked += static_cast<double>(
        (detect_main ? result : probe).abft.tiles_checked);
    return std::move(result.c);
}

Tensor<double>
TracedRunner::node(const QNode &node, const Tensor<double> &input,
                   uint64_t image, int64_t parent)
{
    // Mirrors runQNode (runtime/qgraph.cc) step for step; the harness
    // checks the outputs bitwise against the reference like every pass.
    const uint64_t probe_before = probe_ns_;
    const int64_t span = log_.begin("runtime.node", image, parent);
    Tensor<double> out;
    const double requant = node.a_params.scale * node.w_params.scale;
    switch (node.kind) {
      case QNode::Kind::kConv: {
        ConvSpec spec = node.spec;
        spec.in_h = static_cast<unsigned>(input.dim(2));
        spec.in_w = static_cast<unsigned>(input.dim(3));
        spec.validate();
        const auto qa = quantizeTensor(input, node.a_params, image, span);
        const auto a_int = toInt(lower(qa, spec, 0, image, span));
        const auto c = gemm(a_int, node.weights_q, spec.gemmM(),
                            spec.gemmN(), spec.gemmK(), configOf(node),
                            false, image, span);
        out = Tensor<double>({1, spec.out_c, spec.outH(), spec.outW()});
        uint64_t row = 0;
        for (unsigned y = 0; y < spec.outH(); ++y)
            for (unsigned x = 0; x < spec.outW(); ++x, ++row)
                for (unsigned o = 0; o < spec.out_c; ++o)
                    out.at(0, o, y, x) =
                        requant * static_cast<double>(
                                      c[row * spec.out_c + o]) +
                        node.bias[o];
        break;
      }
      case QNode::Kind::kDepthwise: {
        ConvSpec spec = node.spec;
        spec.in_h = static_cast<unsigned>(input.dim(2));
        spec.in_w = static_cast<unsigned>(input.dim(3));
        spec.validate();
        const auto qa = quantizeTensor(input, node.a_params, image, span);
        const uint64_t k = spec.gemmK();
        out = Tensor<double>({1, spec.out_c, spec.outH(), spec.outW()});
        for (unsigned c = 0; c < spec.groups; ++c) {
            const auto a_int = toInt(lower(qa, spec, c, image, span));
            const std::span<const int32_t> w_col(
                node.weights_q.data() + uint64_t{c} * k, k);
            const auto col = gemm(a_int, w_col, spec.gemmM(), 1, k,
                                  configOf(node), true, image, span);
            uint64_t row = 0;
            for (unsigned y = 0; y < spec.outH(); ++y)
                for (unsigned x = 0; x < spec.outW(); ++x, ++row)
                    out.at(0, c, y, x) =
                        requant * static_cast<double>(col[row]) +
                        node.bias[c];
        }
        break;
      }
      case QNode::Kind::kLinear: {
        const uint64_t k = node.spec.in_c;
        const uint64_t n = node.spec.out_c;
        if (input.size() != k)
            throw std::runtime_error("linear input size mismatch");
        const auto qa = quantizeTensor(input, node.a_params, image, span);
        const auto c = gemm(toInt(qa), node.weights_q, 1, n, k,
                            configOf(node), false, image, span);
        out = Tensor<double>({1, n});
        for (unsigned o = 0; o < n; ++o)
            out[o] = requant * static_cast<double>(c[o]) + node.bias[o];
        break;
      }
      default:
        out = runQNode(node, input, naive_);
        break;
    }
    const uint64_t dur = log_.end(span);
    totals.node_ns += static_cast<double>(dur - (probe_ns_ - probe_before));
    return out;
}

void
addLayerMetrics(RunResult &result, const LayerTotals &t)
{
    const double per = std::max<double>(1.0, static_cast<double>(t.images));
    const auto ms = [per](double ns) { return ns / 1e6 / per; };
    const double children = t.quantize_ns + t.im2row_ns + t.pack_a_ns +
                            t.pack_b_ns + t.expand_ns + t.kernel_ns;
    result.add("runtime.node_ms", ms(t.node_ns), "ms");
    result.add("runtime.epilogue_ms", ms(t.node_ns - children), "ms");
    result.add("quant.quantize_ms", ms(t.quantize_ns), "ms");
    result.add("tensor.im2row_ms", ms(t.im2row_ns), "ms");
    result.add("tensor.pack_a_ms", ms(t.pack_a_ns), "ms");
    result.add("tensor.pack_b_ms", ms(t.pack_b_ns), "ms");
    result.add("tensor.bytes_packed_mb", t.bytes_packed / 1e6 / per, "MB");
    result.add("bs.expand_ms", ms(t.expand_ns), "ms");
    result.add("gemm.kernel_ms", ms(t.kernel_ns), "ms");
    result.add("gemm.kernel_gops", t.kernel_ns > 0 ? t.ops / t.kernel_ns : 0,
               "Gop/s");
    result.add("gemm.depthwise_ms", ms(t.depthwise_kernel_ns), "ms");
    result.add("gemm.calls", t.calls / per, "count");
    result.add("fault.abft_ms", ms(t.abft_ns), "ms");
    result.add("fault.tiles_checked", t.tiles_checked / per, "count");
}

} // namespace e2ebench
