/**
 * @file
 * serve-smallcnn: open-loop serving of the small CNN.
 *
 * An InferenceServer with 2 workers of 1 backend thread each, a
 * disk-less PackedWeightStore and the ServeTelemetry plane attached, a
 * single a8-w8 rung and degradation off. One generator thread (this
 * one) submits on a seeded Poisson schedule at a fixed absolute rate
 * below capacity, with no deadlines, so a queue forms but never
 * overflows. Every latency is measured from the request's due time to
 * the server's done timestamp, and every percentile is computed from
 * the raw samples.
 *
 * A traced run serves half its window untraced and half traced (submit
 * timed, observer callbacks timed through a forwarding observer, the
 * futures polled for delivery), and replays the served graph through
 * the traced node runner for the inference-layer metrics.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "common/random.h"
#include "layers.h"
#include "nn/dataset.h"
#include "nn/qat.h"
#include "probe.h"
#include "runtime/ptq.h"
#include "serve/ladder.h"
#include "serve/server.h"
#include "spans.h"
#include "store/store.h"
#include "telemetry/registry.h"
#include "telemetry/serve_telemetry.h"

namespace e2ebench
{

using namespace mixgemm;

namespace
{

constexpr int kSetupReps = 25; ///< set-ups per run (each ~25 ms); setup_s is their median
constexpr unsigned kWorkers = 2;
constexpr double kArrivalHz = 3000.0;
constexpr size_t kInputs = 32;
constexpr size_t kQueueCapacity = 4096; ///< far above any queue the rate forms
/// A run whose generator sent its p99 request later than this after
/// the due time measured the generator, not the server: invalid. The
/// spinning generator stays near 0.05 ms on a quiet host and reached
/// 1.6 ms under the host's heaviest contention.
constexpr double kMaxLatenessMs = 5.0;
constexpr int kLayerReps = 8; ///< traced replays of each input
constexpr double kSliceSeconds = 2.0;
constexpr int kProbesPerSlice = 3;
/// Host-contention sensitivity (probe.h): a request's work is small and
/// cache-resident, so serving slows far less than the probe.
constexpr double kSensitivity = 0.25;

/** One set-up serving stack. Tears down observer-first. */
struct Serving
{
    QuantizedGraph graph; ///< copy of the served rung, for direct runs
    std::unique_ptr<PackedWeightStore> store;
    std::shared_ptr<const PackedModelIndex> index; ///< over @ref graph
    std::unique_ptr<InferenceServer> server;
    MetricsRegistry registry;
    std::unique_ptr<ServeTelemetry> telemetry;
    uint64_t graph_id = 0;
    double load_ms = 0.0;

    Serving() = default;
    ~Serving()
    {
        if (server) {
            server->shutdown();
            server->setObserver(nullptr);
        }
    }
    Serving(const Serving &) = delete;
    Serving &operator=(const Serving &) = delete;
};

std::unique_ptr<Serving>
setUpServing(const PatternDataset &calib)
{
    auto s = std::make_unique<Serving>();
    Network network = makeSmallCnn(QatConfig{false, 8, 8}, 42);
    TrainConfig train_config;
    train_config.epochs = 1;
    train(network, calib, train_config);
    PtqOptions ptq;
    ptq.calibration_samples = 32;
    ptq.bias_correction = false;
    std::vector<TierSpec> ladder =
        buildPrecisionLadder(network, calib, {{8, 8}}, ptq);
    s->graph = ladder.front().graph;

    // The explicit load packs the weights (store.load_ms); the server's
    // own load at registration is then a resident hit on the same key.
    StoreOptions store_options;
    store_options.dir = "";
    store_options.persist = false;
    s->store = std::make_unique<PackedWeightStore>(store_options);
    const uint64_t t0 = nowNs();
    auto packed = s->store->load(s->graph);
    s->load_ms = static_cast<double>(nowNs() - t0) / 1e6;
    if (!packed.ok())
        throw std::runtime_error("store load: " + packed.status().toString());
    auto index = PackedModelIndex::build(*packed, s->graph);
    if (!index.ok())
        throw std::runtime_error("store index: " + index.status().toString());
    s->index = *index;

    ServerOptions options;
    options.workers = kWorkers;
    options.backend_threads = 1;
    options.queue_capacity = kQueueCapacity;
    options.degradation.enabled = false;
    options.weight_store = s->store.get();
    s->server = std::make_unique<InferenceServer>(options);
    auto id = s->server->registerGraph(
        "smallcnn", std::move(ladder),
        {1, 1, PatternDataset::kImageSize, PatternDataset::kImageSize});
    if (!id.ok())
        throw std::runtime_error("register: " + id.status().toString());
    s->graph_id = *id;

    ServeTelemetryOptions telemetry_options;
    telemetry_options.registry = &s->registry;
    telemetry_options.model = "smallcnn";
    s->telemetry = std::make_unique<ServeTelemetry>(telemetry_options);
    s->telemetry->attachServer(s->server.get());
    return s;
}

/** Forwards to ServeTelemetry and times every callback. */
class TimedObserver final : public ServeObserver
{
  public:
    explicit TimedObserver(ServeObserver &inner) : inner_(inner) {}

    void onDecision(uint64_t seq, const std::string &line) override
    {
        const uint64_t t0 = nowNs();
        inner_.onDecision(seq, line);
        ns_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
        decisions_.fetch_add(1, std::memory_order_relaxed);
    }
    void onTerminal(const RequestReport &report, StatusCode code) override
    {
        const uint64_t t0 = nowNs();
        inner_.onTerminal(report, code);
        ns_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
    }
    void onWatchdogCancel(unsigned worker, uint64_t seq,
                          uint64_t now_ns) override
    {
        const uint64_t t0 = nowNs();
        inner_.onWatchdogCancel(worker, seq, now_ns);
        ns_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
    }
    void onAbftUncorrectable(uint64_t seq, uint64_t tiles,
                             uint64_t now_ns) override
    {
        const uint64_t t0 = nowNs();
        inner_.onAbftUncorrectable(seq, tiles, now_ns);
        ns_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
    }

    uint64_t ns() const { return ns_.load(std::memory_order_relaxed); }
    uint64_t decisions() const
    {
        return decisions_.load(std::memory_order_relaxed);
    }

  private:
    ServeObserver &inner_;
    std::atomic<uint64_t> ns_{0};
    std::atomic<uint64_t> decisions_{0};
};

/** Raw per-request record of one serving window. */
struct Sample
{
    uint64_t due_ns = 0;
    uint64_t call_ns = 0;   ///< submit() entered
    uint64_t return_ns = 0; ///< submit() returned
    uint64_t ready_ns = 0;  ///< future seen ready (traced windows)
    size_t input = 0;
    ServeResponse response;
};

struct Window
{
    std::vector<Sample> samples;
    double active_ns = 0; ///< slice time, first due to last done
    uint64_t ok = 0;
    uint64_t failed = 0; ///< non-ok or wrong output
    std::vector<double> latency_ms;
    std::vector<double> lateness_ms;
    std::vector<double> probe_ms; ///< host probes between slices
};

/**
 * Serve one open-loop slice of @p seconds and wait for it to drain,
 * appending to @p w. The schedule (due times and input choice) comes
 * from @p rng before the slice starts.
 */
void
serveSlice(Serving &s, const std::vector<Tensor<double>> &inputs,
           const std::vector<std::vector<double>> &expected, Rng &rng,
           double seconds, bool traced, Window &w)
{
    std::vector<Sample> slice;
    for (double t = 0;;) {
        t += -std::log(1.0 - rng.uniformReal()) / kArrivalHz * 1e9;
        if (t > seconds * 1e9)
            break;
        Sample sample;
        sample.due_ns = static_cast<uint64_t>(t);
        sample.input = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(inputs.size()) - 1));
        slice.push_back(std::move(sample));
    }
    std::vector<std::future<ServeResponse>> futures(slice.size());
    std::vector<size_t> outstanding;
    const auto poll = [&] {
        std::erase_if(outstanding, [&](size_t i) {
            if (futures[i].wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
                return false;
            slice[i].ready_ns = nowNs();
            return true;
        });
    };

    const uint64_t start_ns = nowNs() + 1'000'000;
    for (size_t i = 0; i < slice.size(); ++i) {
        Sample &sample = slice[i];
        sample.due_ns += start_ns;
        // Spin to the due time: a sleep overshoots by hundreds of
        // microseconds here, longer than the service time.
        while (nowNs() < sample.due_ns)
            if (traced)
                poll();
        ServeRequest request;
        request.graph_id = s.graph_id;
        request.input = inputs[sample.input];
        sample.call_ns = nowNs();
        futures[i] = s.server->submit(std::move(request));
        sample.return_ns = nowNs();
        if (traced)
            outstanding.push_back(i);
    }
    while (!outstanding.empty())
        poll();

    uint64_t end_ns = start_ns;
    for (size_t i = 0; i < slice.size(); ++i) {
        Sample &sample = slice[i];
        sample.response = futures[i].get();
        const ServeResponse &r = sample.response;
        w.lateness_ms.push_back(
            static_cast<double>(sample.call_ns - sample.due_ns) / 1e6);
        end_ns = std::max(end_ns, r.report.done_ns);
        if (r.status.ok() && r.output == expected[sample.input]) {
            ++w.ok;
            w.latency_ms.push_back(
                static_cast<double>(r.report.done_ns - sample.due_ns) / 1e6);
        } else {
            ++w.failed;
        }
    }
    w.active_ns += static_cast<double>(end_ns - start_ns);
    std::move(slice.begin(), slice.end(), std::back_inserter(w.samples));
}

/**
 * Serve @p seconds as slices of about kSliceSeconds. Between slices the
 * server is drained and idle, and the host probe runs, so probing never
 * overlaps traffic.
 */
Window
serveWindow(Serving &s, const std::vector<Tensor<double>> &inputs,
            const std::vector<std::vector<double>> &expected, Rng &rng,
            double seconds, bool traced)
{
    Window w;
    const int slices =
        std::max(1, static_cast<int>(std::lround(seconds / kSliceSeconds)));
    for (int i = 0; i < slices; ++i) {
        for (int p = 0; p < kProbesPerSlice; ++p)
            w.probe_ms.push_back(hostProbeMs());
        serveSlice(s, inputs, expected, rng, seconds / slices, traced, w);
    }
    return w;
}

/** Rejects a window whose generator fell behind its schedule. */
void
checkLateness(const Window &w)
{
    const double p99 = percentile(w.lateness_ms, 99.0);
    if (p99 > kMaxLatenessMs)
        throw InvalidRun("generator p99 lateness " + std::to_string(p99) +
                         " ms exceeds " + std::to_string(kMaxLatenessMs) +
                         " ms");
}

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (const double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

} // namespace

RunResult
runServe(const RunOptions &options)
{
    const PatternDataset calib(96, options.seed ^ 0x5eedu);
    std::vector<double> setup_s, load_ms, setup_probe_ms;
    std::unique_ptr<Serving> s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        s.reset();
        const uint64_t t0 = nowNs();
        s = setUpServing(calib);
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        load_ms.push_back(s->load_ms);
        setup_probe_ms.push_back(hostProbeMs());
    }

    // Expected outputs: a direct NaiveBackend run of each input.
    std::vector<Tensor<double>> inputs;
    std::vector<std::vector<double>> expected;
    NaiveBackend naive;
    for (size_t i = 0; i < kInputs && i < calib.size(); ++i) {
        inputs.push_back(calib.samples()[i].image);
        expected.push_back(s->graph.run(inputs.back(), naive));
    }

    RunResult result;
    Rng rng(options.seed);
    const double seconds = options.trace ? options.seconds / 2
                                         : options.seconds;
    const Window plain = serveWindow(*s, inputs, expected, rng, seconds,
                                     false);
    checkLateness(plain);
    result.attempted += plain.samples.size();
    result.failed += plain.failed;
    result.note("offered_hz", kArrivalHz);
    result.note("requests", static_cast<double>(plain.samples.size()));
    result.note("latency_samples",
                static_cast<double>(plain.latency_ms.size()));
    result.note("generator_lateness_ms_p99",
                percentile(plain.lateness_ms, 99.0));

    if (!options.trace) {
        result.correct = result.failed == 0;
        const double p10 = percentile(plain.latency_ms, 10.0);
        result.add("setup_s",
                   hostNormalized(median(setup_s), setup_probe_ms,
                                  kSensitivity),
                   "s");
        result.add("latency_ms_p10_norm",
                   hostNormalized(p10, plain.probe_ms, kSensitivity), "ms");
        result.add("peak_rss_mb", peakRssMb(), "MB");
        result.report("setup_s_raw", median(setup_s), "s");
        result.report("latency_ms_p10", p10, "ms");
        result.report("host_probe_ms_p10", percentile(plain.probe_ms, 10.0),
                      "ms");
        result.report("latency_ms_p50", median(plain.latency_ms), "ms");
        result.report("latency_ms_p99", percentile(plain.latency_ms, 99.0),
                      "ms");
        result.report("images_per_s",
                      static_cast<double>(plain.ok) /
                          (plain.active_ns / 1e9),
                      "1/s");
        return result;
    }

    // Traced half: the same server, a forwarding observer timing the
    // telemetry callbacks, submit and delivery timed per request.
    TimedObserver observer(*s->telemetry);
    s->server->setObserver(&observer);
    const Window traced = serveWindow(*s, inputs, expected, rng, seconds,
                                      true);
    s->server->setObserver(s->telemetry.get());
    checkLateness(traced);
    result.attempted += traced.samples.size();
    result.failed += traced.failed;

    SpanLog log;
    std::vector<double> admit_us, queue_ms, exec_ms, deliver_us, attempts;
    double busy_ns = 0;
    for (size_t i = 0; i < traced.samples.size(); ++i) {
        const Sample &x = traced.samples[i];
        const RequestReport &r = x.response.report;
        const int64_t root =
            log.add("serve.request", i, -1, x.due_ns, x.ready_ns);
        log.add("serve.admit", i, root, x.call_ns, x.return_ns);
        admit_us.push_back(static_cast<double>(x.return_ns - x.call_ns) /
                           1e3);
        deliver_us.push_back(
            static_cast<double>(x.ready_ns - r.done_ns) / 1e3);
        if (r.start_ns == 0)
            continue; // never dispatched
        log.add("serve.queue", i, root, r.submit_ns, r.start_ns);
        log.add("serve.exec", i, root, r.start_ns, r.done_ns);
        log.add("serve.deliver", i, root, r.done_ns, x.ready_ns);
        queue_ms.push_back(static_cast<double>(r.start_ns - r.submit_ns) /
                           1e6);
        exec_ms.push_back(static_cast<double>(r.done_ns - r.start_ns) / 1e6);
        busy_ns += static_cast<double>(r.done_ns - r.start_ns);
        attempts.push_back(r.attempts);
    }

    // Inference layers of the served graph: traced direct replays.
    TracedRunner runner(log, s->index.get(), FaultPolicy::Off);
    for (int rep = 0; rep < kLayerReps; ++rep)
        for (size_t i = 0; i < inputs.size(); ++i) {
            const uint64_t id = 1'000'000'000ull + rep * inputs.size() + i;
            const int64_t span = log.begin("image", id);
            Tensor<double> t = inputs[i];
            for (const QNode &node : s->graph.nodes())
                t = runner.node(node, t, id, span);
            log.end(span);
            runner.takeProbeNs();
            ++runner.totals.images;
            if (!std::equal(t.flat().begin(), t.flat().end(),
                            expected[i].begin(), expected[i].end())) {
                ++result.failed;
            }
            ++result.attempted;
        }
    addLayerMetrics(result, runner.totals);

    const double requests = static_cast<double>(traced.samples.size());
    const ServerStats stats = s->server->stats();
    result.correct = result.failed == 0;
    result.add("store.load_ms", median(load_ms), "ms");
    result.add("store.resident_mb",
               static_cast<double>(s->store->stats().resident_bytes) / 1e6,
               "MB");
    result.add("serve.admit_us", mean(admit_us), "us");
    result.add("serve.queue_wait_ms_p50", median(queue_ms), "ms");
    result.add("serve.queue_wait_ms_p99", percentile(queue_ms, 99.0), "ms");
    result.add("serve.exec_ms_p50", median(exec_ms), "ms");
    result.add("serve.deliver_us", mean(deliver_us), "us");
    result.add("serve.worker_busy_share",
               busy_ns / (kWorkers * traced.active_ns),
               "1");
    result.add("serve.attempts_per_request", mean(attempts), "1");
    result.add("serve.decisions_per_request",
               static_cast<double>(observer.decisions()) / requests, "1");
    result.add("serve.shed", static_cast<double>(stats.shed), "count");
    result.add("serve.rejected",
               static_cast<double>(stats.rejected_full +
                                   stats.rejected_invalid +
                                   stats.rejected_closed +
                                   stats.rejected_rate +
                                   stats.rejected_bulkhead +
                                   stats.rejected_tenant_limit +
                                   stats.rejected_draining),
               "count");
    result.add("telemetry.observer_us_per_request",
               static_cast<double>(observer.ns()) / 1e3 / requests, "us");
    result.add("trace.overhead_pct",
               (median(traced.latency_ms) / median(plain.latency_ms) - 1.0) *
                   100.0,
               "%");
    if (!options.trace_out.empty() && !log.writeChromeTrace(options.trace_out))
        throw std::runtime_error("cannot write " + options.trace_out);
    result.note("spans", static_cast<double>(log.size()));
    return result;
}

} // namespace e2ebench
