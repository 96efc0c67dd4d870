/**
 * @file
 * Single-stream whole-network inference workloads: resnet18-mixed,
 * mobilenet-mixed and resnet18-abft.
 *
 * The paper's layer tables get deterministic synthetic weights (first
 * and last layers a8-w8, the rest a4-w4, as `mixgemm-cli network`
 * prices them), prepacked through a disk-less PackedWeightStore. The
 * synthetic graphs carry no pooling or residual nodes, so they do not
 * chain: every GEMM-bearing node runs through runQNode on a seeded input
 * of its own declared ConvSpec shape, and one image is one pass over
 * all of them on a 1-thread MixGemmBackend, one image at a time.
 *
 * The traced run replays each node through the same public calls
 * runQNode and MixGemmBackend::gemm make (quantize, im2row,
 * PackedWeightStore lookup / CompressedB, CompressedA,
 * ensureClusterPanels, mixGemm), with a span around each, alternating
 * with untraced passes so the tracing overhead is measured in-process.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "bench.h"
#include "common/random.h"
#include "dnn/models.h"
#include "fault/injector.h"
#include "layers.h"
#include "probe.h"
#include "runtime/backend.h"
#include "runtime/qgraph.h"
#include "spans.h"
#include "store/modelgen.h"
#include "store/store.h"

namespace e2ebench
{

using namespace mixgemm;

namespace
{

constexpr size_t kImagePool = 2; ///< distinct seeded images, cycled
constexpr size_t kMinImages = 3; ///< per run, however short
constexpr int kSetupReps = 9;    ///< set-ups per run; setup_s is their median
/// Host-contention sensitivity (probe.h): the plain networks slow as much
/// as the probe; the ABFT checks add cache-resident work that slows less.
constexpr double kSensitivity = 1.0;
constexpr double kAbftSensitivity = 0.5;

/** A set-up model: graph, its packed weights, the GEMM node list. */
struct Model
{
    QuantizedGraph graph;
    std::unique_ptr<PackedWeightStore> store;
    std::shared_ptr<const PackedModelIndex> index;
    std::vector<size_t> gemm_nodes;
    double load_ms = 0.0; ///< PackedWeightStore::load
};

bool
isGemmNode(const QNode &node)
{
    return node.kind == QNode::Kind::kConv ||
           node.kind == QNode::Kind::kDepthwise ||
           node.kind == QNode::Kind::kLinear;
}

/**
 * The layer table with synthetic weights, first and last layers at
 * a8-w8 and the rest at a4-w4. syntheticQuantizedGraph emits layer i
 * as node 2i (a ReLU follows every layer but the last).
 */
QuantizedGraph
mixedGraph(const ModelSpec &spec, uint64_t seed)
{
    QuantizedGraph graph = syntheticQuantizedGraph(spec, 4, 4, seed);
    QuantizedGraph wide = syntheticQuantizedGraph(spec, 8, 8, seed);
    for (size_t i = 0; i < spec.layers.size(); ++i)
        if (spec.layers[i].is_first || spec.layers[i].is_last)
            graph.nodes()[2 * i] = std::move(wide.nodes()[2 * i]);
    return graph;
}

std::unique_ptr<Model>
setUpModel(const ModelSpec &spec, uint64_t seed)
{
    auto model = std::make_unique<Model>();
    model->graph = mixedGraph(spec, seed);
    StoreOptions store_options;
    store_options.dir = "";
    store_options.persist = false;
    model->store = std::make_unique<PackedWeightStore>(store_options);
    const uint64_t t0 = nowNs();
    auto packed = model->store->load(model->graph);
    model->load_ms = static_cast<double>(nowNs() - t0) / 1e6;
    if (!packed.ok())
        throw std::runtime_error("store load: " +
                                 packed.status().toString());
    auto index = PackedModelIndex::build(*packed, model->graph);
    if (!index.ok())
        throw std::runtime_error("store index: " +
                                 index.status().toString());
    model->index = *index;
    for (size_t i = 0; i < model->graph.nodes().size(); ++i)
        if (isGemmNode(model->graph.nodes()[i]))
            model->gemm_nodes.push_back(i);
    return model;
}

/** Seeded activations of one node's declared input shape, drawn as
 * exact codes of its activation format. */
Tensor<double>
makeInput(const QNode &node, Rng &rng)
{
    const ConvSpec &s = node.spec;
    Tensor<double> t(node.kind == QNode::Kind::kLinear
                         ? std::vector<size_t>{1, s.in_c}
                         : std::vector<size_t>{1, s.in_c, s.in_h, s.in_w});
    const int64_t lo = node.a_params.qmin();
    const int64_t hi = node.a_params.qmax();
    for (double &v : t.flat())
        v = static_cast<double>(rng.uniformInt(lo, hi)) *
            node.a_params.scale;
    return t;
}

struct Image
{
    std::vector<Tensor<double>> inputs;   ///< one per GEMM node
    std::vector<Tensor<double>> expected; ///< NaiveBackend outputs
};

bool
sameOutputs(const std::vector<Tensor<double>> &a,
            const std::vector<Tensor<double>> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].shape() != b[i].shape() ||
            !std::equal(a[i].flat().begin(), a[i].flat().end(),
                        b[i].flat().begin()))
            return false;
    return true;
}

std::vector<Tensor<double>>
runPass(const Model &model, const Image &image, GemmBackend &backend)
{
    std::vector<Tensor<double>> out;
    out.reserve(model.gemm_nodes.size());
    for (size_t j = 0; j < model.gemm_nodes.size(); ++j)
        out.push_back(runQNode(model.graph.nodes()[model.gemm_nodes[j]],
                               image.inputs[j], backend));
    return out;
}

} // namespace

RunResult
runInference(const RunOptions &options)
{
    const bool abft = options.workload == "resnet18-abft";
    const ModelSpec spec = options.workload == "mobilenet-mixed"
                               ? mobileNetV1()
                               : resNet18();
    const FaultPolicy policy = abft ? FaultPolicy::Detect : FaultPolicy::Off;

    // Set-up several times; setup_s is the median. The previous model is
    // released first so peak RSS holds one model.
    std::vector<double> setup_s, load_ms, setup_probe_ms;
    std::unique_ptr<Model> model;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        model.reset();
        const uint64_t t0 = nowNs();
        model = setUpModel(spec, options.seed);
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        load_ms.push_back(model->load_ms);
        setup_probe_ms.push_back(hostProbeMs());
    }
    const size_t nodes = model->gemm_nodes.size();
    RunResult result;

    MixGemmBackend backend(1);
    backend.setPrepacked(model->index.get());
    backend.setFaultPolicy(policy);

    // Inputs and the NaiveBackend reference, before any timing; then
    // one checked warm-up pass per image.
    Rng rng(options.seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<Image> images(kImagePool);
    NaiveBackend naive;
    bool reference_ok = true;
    const uint64_t reference_start = nowNs();
    for (Image &image : images) {
        for (const size_t idx : model->gemm_nodes)
            image.inputs.push_back(makeInput(model->graph.nodes()[idx], rng));
        image.expected = runPass(*model, image, naive);
        reference_ok &=
            sameOutputs(runPass(*model, image, backend), image.expected);
    }
    result.note("reference_check_s",
                static_cast<double>(nowNs() - reference_start) / 1e9);
    std::printf("e2ebench: %s: %zu GEMM nodes, %zu images checked "
                "against NaiveBackend: %s\n",
                options.workload.c_str(), nodes, images.size(),
                reference_ok ? "equal" : "MISMATCH");

    // Timed window: one image at a time. A traced run alternates
    // untraced and traced passes.
    SpanLog log;
    TracedRunner traced(log, model->index.get(), policy);
    std::vector<double> untraced_ms, traced_ms, probe_ms;
    uint64_t untraced_failed = 0;
    const uint64_t window_ns =
        static_cast<uint64_t>(options.seconds * 1e9);
    const uint64_t window_start = nowNs();
    for (uint64_t i = 0;; ++i) {
        if (i >= kMinImages && nowNs() - window_start >= window_ns)
            break;
        const Image &image = images[i % images.size()];
        const bool trace_this = options.trace && i % 2 == 1;
        std::vector<Tensor<double>> out;
        const uint64_t t0 = nowNs();
        if (trace_this) {
            const int64_t span = log.begin("image", i);
            out.reserve(nodes);
            for (size_t j = 0; j < nodes; ++j)
                out.push_back(traced.node(
                    model->graph.nodes()[model->gemm_nodes[j]],
                    image.inputs[j], i, span));
            log.end(span);
        } else {
            out = runPass(*model, image, backend);
        }
        const uint64_t t1 = nowNs();
        const bool ok = sameOutputs(out, image.expected);
        probe_ms.push_back(hostProbeMs());
        ++result.attempted;
        result.failed += ok ? 0 : 1;
        if (trace_this) {
            ++traced.totals.images;
            traced_ms.push_back(
                static_cast<double>(t1 - t0 - traced.takeProbeNs()) / 1e6);
        } else {
            untraced_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
            untraced_failed += ok ? 0 : 1;
        }
    }

    // ABFT liveness: one seeded single-bit accumulator fault must be
    // flagged, so detection cannot be quietly switched off.
    bool live = true;
    if (abft) {
        FaultSpec fault;
        fault.seed = options.seed;
        fault.site = FaultSite::Accumulator;
        fault.model = FaultModel::BitFlip;
        FaultInjector injector({fault});
        backend.setFaultInjector(&injector);
        runQNode(model->graph.nodes()[model->gemm_nodes.back()],
                 images[0].inputs.back(), backend);
        backend.setFaultInjector(nullptr);
        const uint64_t flagged = backend.lastAbft().tiles_flagged;
        live = flagged >= 1;
        result.note("abft_liveness_tiles_flagged",
                    static_cast<double>(flagged));
        std::printf("e2ebench: ABFT liveness: injected %llu fault(s), "
                    "%llu tile(s) flagged\n",
                    static_cast<unsigned long long>(
                        injector.injectedCount()),
                    static_cast<unsigned long long>(flagged));
    }
    result.correct = reference_ok && live && result.failed == 0;

    result.note("latency_ms_samples", untraced_ms);
    result.note("probe_ms_samples", probe_ms);
    result.note("images_timed", static_cast<double>(untraced_ms.size()));
    result.note("images_traced", static_cast<double>(traced_ms.size()));
    result.note("gemm_nodes", static_cast<double>(nodes));

    if (!options.trace) {
        const double p10 = percentile(untraced_ms, 10.0);
        const double sensitivity = abft ? kAbftSensitivity : kSensitivity;
        result.add("setup_s",
                   hostNormalized(median(setup_s), setup_probe_ms,
                                  sensitivity),
                   "s");
        result.add("latency_ms_p10_norm",
                   hostNormalized(p10, probe_ms, sensitivity), "ms");
        result.add("peak_rss_mb", peakRssMb(), "MB");
        result.report("setup_s_raw", median(setup_s), "s");
        result.report("latency_ms_p10", p10, "ms");
        result.report("host_probe_ms_p10", percentile(probe_ms, 10.0), "ms");
        result.report("latency_ms_p50", median(untraced_ms), "ms");
        result.report("latency_ms_p99", percentile(untraced_ms, 99.0), "ms");
        result.report("images_per_s",
                      static_cast<double>(untraced_ms.size() -
                                          untraced_failed) /
                          (std::accumulate(untraced_ms.begin(),
                                           untraced_ms.end(), 0.0) /
                           1e3),
                      "1/s");
        return result;
    }

    addLayerMetrics(result, traced.totals);
    result.add("store.load_ms", median(load_ms), "ms");
    result.add("store.resident_mb",
               static_cast<double>(model->store->stats().resident_bytes) /
                   1e6,
               "MB");
    result.add("trace.overhead_pct",
               (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0,
               "%");
    if (!options.trace_out.empty() && !log.writeChromeTrace(options.trace_out))
        throw std::runtime_error("cannot write " + options.trace_out);
    result.note("spans", static_cast<double>(log.size()));
    return result;
}

} // namespace e2ebench
