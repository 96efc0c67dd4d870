/**
 * @file
 * Robustness tests for the serving stack: cooperative cancellation at
 * macro-tile boundaries (partial output is zero-or-correct, an
 * untriggered token is bitwise transparent), the InferenceServer's
 * admission/shed/deadline/retry/degradation decisions pinned against a
 * VirtualClock in pump mode, the watchdog breaking a stalled worker in
 * threaded mode, and byte-for-byte decision-log determinism of the
 * seeded soak harness.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "gemm/mixgemm.h"
#include "gemm/reference.h"
#include "runtime/backend.h"
#include "runtime/qgraph.h"
#include "serve/chaos.h"
#include "serve/server.h"
#include "store/store.h"
#include "tensor/packing.h"
#include "serve/soak.h"
#include "tensor/packing.h"

namespace mixgemm
{
namespace
{

// ---------------------------------------------------------------------
// Cancellation at the GEMM layer
// ---------------------------------------------------------------------

struct CancelProblem
{
    uint64_t m = 40, n = 40, k = 32;
    std::vector<int32_t> a, b;
    std::vector<int64_t> ref;
    BsGeometry geometry;
    BlockingParams blocking = BlockingParams::paperDefaults();

    explicit CancelProblem(uint64_t seed)
    {
        Rng rng(seed);
        a.resize(m * k);
        b.resize(k * n);
        for (auto &v : a)
            v = static_cast<int32_t>(rng.uniformInt(-8, 7));
        for (auto &v : b)
            v = static_cast<int32_t>(rng.uniformInt(-8, 7));
        ref = referenceGemmInt(a, b, m, n, k);
        DataSizeConfig config; // a8-w8 signed
        geometry = geometryForK(computeBsGeometry(config), k);
        // 16x16 macro tiles over 40x40: a 3x3 grid, 9 tiles, with
        // ragged edges — the cancellation granularity under test.
        blocking.mc = 16;
        blocking.nc = 16;
    }

    MixGemmResult run() const
    {
        return mixGemm(a, b, m, n, k, geometry, blocking);
    }
};

/** Every mc x nc C sub-block must be either fully correct or untouched
 * (all zero) — cancellation must never publish a half-written tile. */
void
expectBlocksZeroOrCorrect(const CancelProblem &p, const MixGemmResult &r)
{
    ASSERT_EQ(r.c.size(), p.ref.size());
    uint64_t complete = 0;
    for (uint64_t i0 = 0; i0 < p.m; i0 += p.blocking.mc) {
        for (uint64_t j0 = 0; j0 < p.n; j0 += p.blocking.nc) {
            bool matches = true;
            bool zero = true;
            for (uint64_t i = i0; i < std::min(p.m, i0 + p.blocking.mc);
                 ++i) {
                for (uint64_t j = j0;
                     j < std::min(p.n, j0 + p.blocking.nc); ++j) {
                    const int64_t got = r.c[i * p.n + j];
                    matches &= got == p.ref[i * p.n + j];
                    zero &= got == 0;
                }
            }
            EXPECT_TRUE(matches || zero)
                << "tile at (" << i0 << "," << j0
                << ") is partially written";
            if (matches && !zero)
                ++complete;
        }
    }
    // Completed tiles always match the reference; untouched tiles are
    // zero (the random operands make an all-zero reference block
    // implausible), so the census must agree with the driver's count.
    EXPECT_EQ(complete, r.tiles_completed);
}

TEST(MixGemmCancel, UntriggeredTokenBitwiseTransparent)
{
    CancelProblem p(101);
    for (const unsigned threads : {1u, 3u, 8u}) {
        for (const KernelMode mode :
             {KernelMode::Fast, KernelMode::Modeled}) {
            p.blocking.threads = threads;
            p.blocking.kernel_mode = mode;
            p.blocking.cancel = nullptr;
            const MixGemmResult plain = p.run();

            CancelSource source;
            const CancelToken token = source.token();
            p.blocking.cancel = &token;
            const MixGemmResult tracked = p.run();
            p.blocking.cancel = nullptr;

            ASSERT_EQ(tracked.c, plain.c)
                << "threads=" << threads;
            EXPECT_EQ(tracked.counters.all(), plain.counters.all());
            EXPECT_TRUE(tracked.status.ok());
            EXPECT_EQ(tracked.tiles_total, 9u);
            EXPECT_EQ(tracked.tiles_completed, tracked.tiles_total);
            EXPECT_EQ(plain.c, p.ref);
        }
    }
}

TEST(MixGemmCancel, CancelAfterTwoPollsIsDeterministicSerially)
{
    CancelProblem p(102);
    p.blocking.threads = 1;
    CancelSource source;
    source.setPollHook([&source](uint64_t poll) {
        if (poll >= 2)
            source.cancel();
    });
    const CancelToken token = source.token();
    p.blocking.cancel = &token;
    const MixGemmResult r = p.run();
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(r.tiles_total, 9u);
    // Serial workers poll once before each tile: polls 0 and 1 admit
    // tiles 0 and 1, poll 2 trips.
    EXPECT_EQ(r.tiles_completed, 2u);
    expectBlocksZeroOrCorrect(p, r);
}

TEST(MixGemmCancel, CancelledNeverWritesOutsideCompletedTiles)
{
    CancelProblem p(103);
    for (const unsigned threads : {1u, 3u, 8u}) {
        for (const KernelMode mode :
             {KernelMode::Fast, KernelMode::Modeled}) {
            CancelSource source;
            source.setPollHook([&source](uint64_t poll) {
                if (poll >= 3)
                    source.cancel();
            });
            const CancelToken token = source.token();
            p.blocking.threads = threads;
            p.blocking.kernel_mode = mode;
            p.blocking.cancel = &token;
            const MixGemmResult r = p.run();
            p.blocking.cancel = nullptr;
            EXPECT_EQ(r.status.code(), StatusCode::kCancelled)
                << "threads=" << threads;
            EXPECT_LT(r.tiles_completed, r.tiles_total);
            expectBlocksZeroOrCorrect(p, r);
        }
    }
}

TEST(MixGemmCancel, ExpiredDeadlineTripsBeforeFirstTile)
{
    CancelProblem p(104);
    VirtualClock clock(10);
    CancelSource source;
    source.setDeadline(5, clock); // already in the past
    const CancelToken token = source.token();
    p.blocking.cancel = &token;
    const MixGemmResult r = p.run();
    EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(r.tiles_completed, 0u);
    for (const int64_t v : r.c)
        ASSERT_EQ(v, 0);
}

TEST(MixGemmCancel, WorkerExceptionSurfacesAsInternal)
{
    // Satellite (a): a throw escaping a parallel-region task must fail
    // the checked entry point with kInternal, not unwind the process.
    CancelProblem p(105);
    for (const unsigned threads : {1u, 3u}) {
        CancelSource source;
        source.setPollHook([](uint64_t poll) {
            if (poll >= 1)
                throw std::runtime_error("injected worker failure");
        });
        const CancelToken token = source.token();
        p.blocking.threads = threads;
        p.blocking.cancel = &token;
        const CompressedA ca(p.a, p.m, p.k, p.geometry);
        const CompressedB cb(p.b, p.k, p.n, p.geometry);
        const auto r = tryMixGemm(ca, cb, p.blocking);
        p.blocking.cancel = nullptr;
        ASSERT_FALSE(r.ok()) << "threads=" << threads;
        EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    }
}

// ---------------------------------------------------------------------
// InferenceServer decisions (pump mode, virtual time)
// ---------------------------------------------------------------------

constexpr uint64_t kK = 32; ///< linear-layer input width
constexpr uint64_t kN = 8;  ///< linear-layer output width

/** One quantized linear layer — cheap enough that server tests run in
 * microseconds, real enough to flow through the Mix-GEMM backend. */
QuantizedGraph
makeLinearGraph(uint64_t seed)
{
    Rng rng(seed);
    QNode lin;
    lin.kind = QNode::Kind::kLinear;
    lin.spec.in_c = static_cast<unsigned>(kK);
    lin.spec.out_c = static_cast<unsigned>(kN);
    lin.spec.kh = lin.spec.kw = 1;
    lin.spec.in_h = lin.spec.in_w = 1;
    lin.weights_q.resize(kK * kN);
    for (auto &w : lin.weights_q)
        w = static_cast<int32_t>(rng.uniformInt(-20, 20));
    lin.bias.assign(kN, 0.25);
    lin.a_params = QuantParams{0.05, 0, 8, true};
    lin.w_params = QuantParams{0.05, 0, 8, true};
    return QuantizedGraph({lin});
}

Tensor<double>
makeInput(uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> data(kK);
    for (auto &v : data)
        v = rng.uniformReal(-1.0, 1.0);
    return Tensor<double>({1, kK}, std::move(data));
}

ServerOptions
pumpOptions(VirtualClock &clock)
{
    ServerOptions options;
    options.workers = 0;
    options.virtual_clock = &clock;
    options.degradation.enabled = false;
    options.queue_capacity = 8;
    return options;
}

uint64_t
registerLinear(InferenceServer &server, unsigned tiers = 1)
{
    std::vector<TierSpec> ladder;
    const char *labels[] = {"full", "eco", "min"};
    for (unsigned t = 0; t < tiers; ++t) {
        TierSpec tier;
        tier.graph = makeLinearGraph(7);
        tier.label = labels[t % 3];
        ladder.push_back(std::move(tier));
    }
    auto id = server.registerGraph("lin", std::move(ladder), {1, kK});
    EXPECT_TRUE(id.ok()) << id.status().toString();
    return *id;
}

bool
logContains(const InferenceServer &server, const std::string &needle)
{
    for (const std::string &line : server.decisionLog())
        if (line.find(needle) != std::string::npos)
            return true;
    return false;
}

/** A chaos engine whose attempt faults come from a script — the
 * server's one fault seam, substituted the way tests inject faults. */
class ScriptedChaos final : public ChaosEngine
{
  public:
    using Script =
        std::function<ChaosAttemptPlan::Action(uint64_t seq,
                                               unsigned attempt)>;

    explicit ScriptedChaos(Script script)
        : ChaosEngine(0, ChaosScenario{}), script_(std::move(script))
    {
    }

    ChaosAttemptPlan planAttempt(uint64_t seq, unsigned attempt, unsigned,
                                 uint64_t) const override
    {
        return {script_(seq, attempt), ChaosAttemptPlan::kUntilCancelled};
    }

  private:
    Script script_;
};

using Action = ChaosAttemptPlan::Action;

ServeRequest
makeRequest(uint64_t graph_id, int priority = 0,
            uint64_t deadline_ns = 0)
{
    ServeRequest request;
    request.graph_id = graph_id;
    request.input = makeInput(11);
    request.priority = priority;
    request.deadline_ns = deadline_ns;
    return request;
}

TEST(Server, RejectsUnknownGraphAndBadShape)
{
    VirtualClock clock;
    InferenceServer server(pumpOptions(clock));
    const uint64_t id = registerLinear(server);

    auto bad_id = server.submit(makeRequest(id + 999));
    EXPECT_EQ(bad_id.get().status.code(), StatusCode::kNotFound);

    ServeRequest bad_shape = makeRequest(id);
    bad_shape.input = Tensor<double>({kK}); // rank 1, not {1, kK}
    auto bad = server.submit(std::move(bad_shape));
    EXPECT_EQ(bad.get().status.code(), StatusCode::kInvalidArgument);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.rejected_invalid, 2u);
    EXPECT_EQ(stats.admitted, 0u);
    EXPECT_TRUE(logContains(server, "reject_invalid seq=0"));
}

TEST(Server, ShedsLowestPriorityForHigherAndRejectsEqual)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.queue_capacity = 2;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);

    auto low = server.submit(makeRequest(id, /*priority=*/0));   // seq 0
    auto mid = server.submit(makeRequest(id, /*priority=*/1));   // seq 1
    // Queue full. A higher-priority arrival displaces the lowest.
    auto high = server.submit(makeRequest(id, /*priority=*/2));  // seq 2
    EXPECT_EQ(low.get().status.code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(logContains(server, "shed seq=0 prio=0 by=2"));

    // Equal priority never sheds queued work (FIFO per class): the
    // incoming request is the one rejected, queue untouched.
    auto equal = server.submit(makeRequest(id, /*priority=*/1)); // seq 3
    EXPECT_EQ(equal.get().status.code(),
              StatusCode::kResourceExhausted);
    EXPECT_TRUE(logContains(server, "reject_full seq=3"));

    EXPECT_EQ(server.pump(10), 2u);
    EXPECT_TRUE(mid.get().status.ok());
    EXPECT_TRUE(high.get().status.ok());

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.admitted, 3u);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.rejected_full, 1u);
    EXPECT_EQ(stats.completed_ok, 2u);
}

TEST(Server, DeadlineExpiresAtSubmitInQueueAndAfterLateCompletion)
{
    VirtualClock clock;
    InferenceServer server(pumpOptions(clock));
    const uint64_t id = registerLinear(server);
    clock.advanceNs(1000);

    // Already expired at submission: rejected before queueing.
    auto at_submit = server.submit(makeRequest(id, 0, /*deadline=*/500));
    EXPECT_EQ(at_submit.get().status.code(),
              StatusCode::kDeadlineExceeded);

    // Expires while queued: pump finds it dead before dispatch.
    auto in_queue = server.submit(makeRequest(id, 0, clock.nowNs() + 10));
    clock.advanceNs(100);
    EXPECT_EQ(server.pump(1), 1u);
    EXPECT_EQ(in_queue.get().status.code(),
              StatusCode::kDeadlineExceeded);

    // Completes, but after its deadline (the modeled service time
    // overruns it): a late answer is a miss and the output is
    // discarded.
    auto late = server.submit(makeRequest(id, 0, clock.nowNs() + 100));
    EXPECT_EQ(server.pump(1), 1u);
    const ServeResponse response = late.get();
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(response.output.empty());
    EXPECT_GT(response.report.attempts, 0u);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.expired_submit, 1u);
    EXPECT_EQ(stats.expired_queue, 1u);
    EXPECT_EQ(stats.deadline_exceeded, 2u);
    EXPECT_TRUE(logContains(server, "expire_submit seq=0"));
    EXPECT_TRUE(logContains(server, "expire_queue seq=1"));
}

TEST(Server, ServingPathMatchesDirectExecutionBitwise)
{
    // Acceptance criterion: with no deadline armed the serving path —
    // queue, CancelToken plumbing, retry scaffolding — must be bitwise
    // transparent: identical logits to running the graph directly.
    const QuantizedGraph graph = makeLinearGraph(7);
    const Tensor<double> input = makeInput(11);
    for (const KernelMode mode :
         {KernelMode::Fast, KernelMode::Modeled}) {
        MixGemmBackend direct(1, mode);
        const std::vector<double> expected = graph.run(input, direct);

        VirtualClock clock;
        ServerOptions options = pumpOptions(clock);
        options.kernel_mode = mode;
        InferenceServer server(options);
        const uint64_t id = registerLinear(server);
        ServeRequest request = makeRequest(id);
        request.input = input;
        auto future = server.submit(std::move(request));
        EXPECT_EQ(server.pump(1), 1u);
        const ServeResponse response = future.get();
        ASSERT_TRUE(response.status.ok())
            << response.status.toString();
        EXPECT_EQ(response.output, expected);
        EXPECT_EQ(response.report.attempts, 1u);
        EXPECT_EQ(response.report.tier, 0u);
    }
}

TEST(Server, RetriesTransientFailureThenSucceeds)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.max_retries = 2;
    options.retry_backoff_ns = 50;
    ScriptedChaos chaos([](uint64_t, unsigned attempt) {
        return attempt == 1 ? Action::kTransient : Action::kNone;
    });
    options.chaos = &chaos;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);
    auto future = server.submit(makeRequest(id));
    EXPECT_EQ(server.pump(1), 1u);
    const ServeResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.toString();
    EXPECT_EQ(response.report.attempts, 2u);
    EXPECT_EQ(server.stats().retries, 1u);
    EXPECT_TRUE(logContains(server, "retry seq=0 attempt=2"));
}

TEST(Server, RetryBudgetCapsAttempts)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.max_retries = 2;
    options.retry_backoff_ns = 50;
    ScriptedChaos chaos(
        [](uint64_t, unsigned) { return Action::kTransient; });
    options.chaos = &chaos;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);
    auto future = server.submit(makeRequest(id));
    server.pump(1);
    const ServeResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(response.report.attempts, 3u); // 1 try + 2 retries
    EXPECT_EQ(server.stats().completed_ok, 0u);
    EXPECT_EQ(server.stats().retries, 2u);
}

TEST(Server, RetryNotTakenWhenBackoffCannotFitDeadline)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.max_retries = 5;
    options.retry_backoff_ns = 1'000'000'000; // dwarfs any deadline here
    ScriptedChaos chaos(
        [](uint64_t, unsigned) { return Action::kTransient; });
    options.chaos = &chaos;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);
    auto future =
        server.submit(makeRequest(id, 0, clock.nowNs() + 100'000));
    server.pump(1);
    const ServeResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(response.report.attempts, 1u);
    EXPECT_EQ(server.stats().retries, 0u);
}

TEST(Server, NonRetriableFailureIsNotRetried)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.max_retries = 5;
    // A worker throw surfaces as kInternal, which is not retriable.
    ScriptedChaos chaos([](uint64_t, unsigned) { return Action::kThrow; });
    options.chaos = &chaos;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);
    auto future = server.submit(makeRequest(id));
    server.pump(1);
    const ServeResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kInternal);
    EXPECT_EQ(response.report.attempts, 1u);
}

TEST(Server, DegradesUnderQueuePressureThenRecovers)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.queue_capacity = 4;
    options.degradation.enabled = true;
    options.degradation.high_watermark = 0.75;
    options.degradation.low_watermark = 0.25;
    options.degradation.min_dwell_ns = 0;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server, /*tiers=*/2);

    // Admission evaluates the level before each push: the 4th submit
    // sees depth 3/4 >= 0.75 and degrades, so it lands on tier 1.
    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(server.submit(makeRequest(id)));
    EXPECT_EQ(server.pump(10), 4u);
    for (int i = 0; i < 4; ++i) {
        const ServeResponse response = futures[i].get();
        ASSERT_TRUE(response.status.ok());
        EXPECT_EQ(response.report.tier, i < 3 ? 0u : 1u) << i;
    }
    // The drained queue recovers (evaluated after each execution), so
    // the next arrival is back on the full-precision rung.
    auto after = server.submit(makeRequest(id));
    server.pump(1);
    EXPECT_EQ(after.get().report.tier, 0u);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.degrade_steps, 1u);
    EXPECT_EQ(stats.recover_steps, 1u);
    EXPECT_EQ(stats.degradation_level, 0u);
    EXPECT_EQ(stats.completed_by_tier.size(), 2u);
    EXPECT_EQ(stats.completed_by_tier[0], 4u);
    EXPECT_EQ(stats.completed_by_tier[1], 1u);
    EXPECT_TRUE(logContains(server, "degrade level=0->1"));
    EXPECT_TRUE(logContains(server, "recover level=1->0"));
}

TEST(Server, HysteresisDwellSuppressesRapidRecovery)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.queue_capacity = 4;
    options.degradation.enabled = true;
    options.degradation.min_dwell_ns = 1'000'000;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server, /*tiers=*/2);

    // Move past the initial dwell window so the first degrade can fire.
    clock.advanceNs(2'000'000);
    for (int i = 0; i < 4; ++i)
        server.submit(makeRequest(id));
    server.pump(10);
    EXPECT_EQ(server.stats().degrade_steps, 1u);
    // The queue is empty again, but the modeled service time of four
    // requests is far below the dwell: recovery must be suppressed and
    // new work keeps executing on the degraded rung.
    EXPECT_EQ(server.stats().recover_steps, 0u);
    auto still_eco = server.submit(makeRequest(id));
    server.pump(1);
    EXPECT_EQ(still_eco.get().report.tier, 1u);

    // Once the dwell has elapsed the pending recovery goes through.
    clock.advanceNs(2'000'000);
    auto recovered = server.submit(makeRequest(id));
    server.pump(1);
    EXPECT_EQ(recovered.get().report.tier, 0u);
    EXPECT_EQ(server.stats().recover_steps, 1u);
}

/** A clock the test can set in either direction. */
class SettableClock final : public Clock
{
  public:
    uint64_t nowNs() const override { return now_.load(); }
    void set(uint64_t now_ns) { now_.store(now_ns); }

  private:
    std::atomic<uint64_t> now_{0};
};

TEST(Server, DwellHoldsWhenACompletionStampPrecedesTheLevelChange)
{
    // In threaded mode a worker stamps its completion before it takes
    // the server lock, so a submit can move the level at a *later*
    // stamp in between. The dwell check must treat that as no time
    // elapsed, not wrap to an enormous one.
    SettableClock clock;
    ServerOptions options;
    options.workers = 0;
    options.clock = &clock;
    options.queue_capacity = 4;
    options.degradation.enabled = true;
    options.degradation.min_dwell_ns = 1'000'000;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server, /*tiers=*/2);

    clock.set(10'000'000);
    for (int i = 0; i < 4; ++i)
        server.submit(makeRequest(id));
    ASSERT_EQ(server.stats().degrade_steps, 1u); // degraded at t

    // Completions stamped before t drain the queue below the low
    // watermark: the level must not move within the dwell.
    clock.set(9'000'000);
    EXPECT_EQ(server.pump(4), 4u);
    EXPECT_EQ(server.stats().degradation_level, 1u);
    EXPECT_EQ(server.stats().recover_steps, 0u);

    // Past t + dwell the recovery goes through.
    clock.set(11'000'000);
    auto recovered = server.submit(makeRequest(id));
    server.pump(1);
    EXPECT_EQ(recovered.get().report.tier, 0u);
    EXPECT_EQ(server.stats().recover_steps, 1u);
}

TEST(Server, LatencyP95TriggersDegradeWithoutQueuePressure)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.queue_capacity = 64; // fill never reaches the watermark
    options.degradation.enabled = true;
    options.degradation.p95_high_ns = 1; // any completion trips it
    // The latency window resets at each level change, so without a
    // dwell the empty queue would recover immediately; the dwell holds
    // the degraded level long enough for the next arrival to see it.
    options.degradation.min_dwell_ns = 10'000;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server, /*tiers=*/2);

    clock.advanceNs(100'000); // move past the initial dwell window
    auto first = server.submit(makeRequest(id));
    server.pump(1);
    // The completion put a sample in the latency window, degrading the
    // server at the post-execution evaluation even though the queue
    // never filled.
    EXPECT_EQ(first.get().report.tier, 0u);
    EXPECT_EQ(server.stats().degrade_steps, 1u);
    auto second = server.submit(makeRequest(id));
    server.pump(1);
    EXPECT_EQ(second.get().report.tier, 1u);
}

TEST(Server, ShutdownFailsQueuedWorkAndRefusesNew)
{
    VirtualClock clock;
    InferenceServer server(pumpOptions(clock));
    const uint64_t id = registerLinear(server);
    auto queued = server.submit(makeRequest(id));
    server.shutdown();
    EXPECT_EQ(queued.get().status.code(), StatusCode::kUnavailable);
    auto after = server.submit(makeRequest(id));
    EXPECT_EQ(after.get().status.code(), StatusCode::kUnavailable);
    server.shutdown(); // idempotent
}

// ---------------------------------------------------------------------
// Watchdog (threaded mode, wall clock)
// ---------------------------------------------------------------------

TEST(Server, WatchdogCancelsStuckWorkerAndServiceContinues)
{
    ServerOptions options;
    options.workers = 1;
    options.queue_capacity = 4;
    options.degradation.enabled = false;
    options.max_retries = 0;
    options.watchdog_timeout_ns = 40'000'000; // 40 ms
    options.watchdog_poll_ns = 5'000'000;
    // Request 0 wedges its worker in a loop that never polls the
    // token (no heartbeat) until cancelled — exactly the stall the
    // watchdog exists to break. Everything after runs normally.
    ScriptedChaos chaos([](uint64_t seq, unsigned) {
        return seq == 0 ? Action::kStall : Action::kNone;
    });
    options.chaos = &chaos;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);

    auto stuck = server.submit(makeRequest(id));
    auto next = server.submit(makeRequest(id));
    const ServeResponse stuck_response = stuck.get();
    EXPECT_EQ(stuck_response.status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(stuck_response.report.attempts, 1u);
    // The recycled worker keeps serving.
    EXPECT_TRUE(next.get().status.ok());
    EXPECT_GE(server.stats().watchdog_cancels, 1u);
    EXPECT_TRUE(logContains(server, "watchdog_cancel worker=0 seq=0"));
    server.shutdown();
}

TEST(Server, DrainedWaitsForAPoppedRequestThatHasNotStarted)
{
    // One worker, quarantined after its first failure: it pops the
    // second request and sits out the quarantine before executing it.
    // In that window the queue is empty and no worker is busy, yet the
    // request is not done — drained() must say so.
    ServerOptions options;
    options.workers = 1;
    options.queue_capacity = 4;
    options.degradation.enabled = false;
    options.max_retries = 0;
    options.health.enabled = true;
    options.health.quarantine_after = 1;
    options.health.quarantine_ns = 200'000'000; // 200 ms
    ScriptedChaos chaos([](uint64_t seq, unsigned) {
        return seq == 0 ? Action::kTransient : Action::kNone;
    });
    options.chaos = &chaos;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);

    auto failing = server.submit(makeRequest(id));
    auto waiting = server.submit(makeRequest(id));
    EXPECT_EQ(failing.get().status.code(), StatusCode::kUnavailable);
    while (server.queueDepth() != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.beginDrain();
    for (;;) {
        // Sample drained() first: once it reads true the response must
        // already have been delivered.
        const bool drained = server.drained();
        if (waiting.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready)
            break;
        ASSERT_FALSE(drained) << "drained while request 1 is pending";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(waiting.get().status.ok());
    EXPECT_TRUE(server.awaitDrained(1'000'000'000));
    EXPECT_EQ(server.stats().backend_quarantines, 1u);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Lazy precision rungs + packed-weight store
// ---------------------------------------------------------------------

/** A deferred rung whose builder counts its invocations — the pack-cost
 * regression gate for registration and the refault witness later. */
TierSpec
lazyTier(const char *label, uint64_t seed, int *builds)
{
    TierSpec tier;
    tier.label = label;
    tier.a_bits = 4;
    tier.w_bits = 4;
    tier.build = [seed, builds] {
        if (builds)
            ++*builds;
        return makeLinearGraph(seed);
    };
    return tier;
}

TierSpec
eagerTier(const char *label, uint64_t seed)
{
    TierSpec tier;
    tier.graph = makeLinearGraph(seed);
    tier.label = label;
    return tier;
}

/** Degradation tuned to step one level per admission: any queue depth
 * is "pressure" and recovery can never fire. */
ServerOptions
alwaysDegradeOptions(VirtualClock &clock)
{
    ServerOptions options = pumpOptions(clock);
    options.degradation.enabled = true;
    options.degradation.high_watermark = 0.0;
    options.degradation.low_watermark = -1.0;
    options.degradation.min_dwell_ns = 0;
    return options;
}

TEST(LazyLadder, RegistrationBuildsAndPacksNoLazyRungs)
{
    VirtualClock clock;
    InferenceServer server(pumpOptions(clock));
    int builds = 0;
    std::vector<TierSpec> ladder;
    ladder.push_back(eagerTier("full", 7));
    ladder.push_back(lazyTier("eco", 7, &builds));
    ladder.push_back(lazyTier("min", 7, &builds));
    const PackCounters before = packCounters();
    auto id =
        server.registerGraph("lin", std::move(ladder), {1, kK});
    ASSERT_TRUE(id.ok()) << id.status().toString();
    const PackCounters after = packCounters();
    // The satellite regression: registering a 3-rung ladder must not
    // quantize or pack the rungs the load pattern never reaches — the
    // dry run prices rung 0 on a MAC-counting backend, no packing.
    EXPECT_EQ(builds, 0);
    EXPECT_EQ(after.b_packs, before.b_packs);
    EXPECT_EQ(after.a_packs, before.a_packs);
    EXPECT_EQ(after.cluster_builds, before.cluster_builds);

    // An undegraded request runs rung 0 and still touches no lazy rung.
    auto future = server.submit(makeRequest(*id));
    EXPECT_EQ(server.pump(1), 1u);
    EXPECT_TRUE(future.get().status.ok());
    EXPECT_EQ(builds, 0);
    EXPECT_EQ(server.stats().rung_materializations, 0u);
}

TEST(LazyLadder, LazyRungZeroIsRejected)
{
    VirtualClock clock;
    InferenceServer server(pumpOptions(clock));
    std::vector<TierSpec> ladder;
    ladder.push_back(lazyTier("full", 7, nullptr));
    auto id = server.registerGraph("bad", std::move(ladder), {1, kK});
    ASSERT_FALSE(id.ok());
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
}

TEST(LazyLadder, MaterializesOnFirstDegradedRequestOnly)
{
    VirtualClock clock;
    InferenceServer server(alwaysDegradeOptions(clock));
    int builds = 0;
    std::vector<TierSpec> ladder;
    ladder.push_back(eagerTier("full", 7));
    ladder.push_back(lazyTier("eco", 7, &builds));
    const uint64_t id = [&] {
        auto r = server.registerGraph("lin", std::move(ladder), {1, kK});
        EXPECT_TRUE(r.ok());
        return *r;
    }();

    // Admission degrades to level 1 before the push, so the first
    // request already lands on the lazy rung and materializes it.
    auto first = server.submit(makeRequest(id));
    EXPECT_EQ(server.pump(1), 1u);
    const ServeResponse r1 = first.get();
    ASSERT_TRUE(r1.status.ok()) << r1.status.toString();
    EXPECT_EQ(r1.report.tier, 1u);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(server.stats().rung_materializations, 1u);
    EXPECT_EQ(server.stats().lazy_rungs_resident, 1u);
    EXPECT_GT(server.stats().lazy_resident_bytes, 0u);
    EXPECT_TRUE(logContains(server, "materialize graph=lin tier=1"));

    // The second degraded request reuses the resident rung.
    auto second = server.submit(makeRequest(id));
    EXPECT_EQ(server.pump(1), 1u);
    const ServeResponse r2 = second.get();
    ASSERT_TRUE(r2.status.ok());
    EXPECT_EQ(r2.report.tier, 1u);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(server.stats().rung_materializations, 1u);
    // Same rung, same input: bitwise-identical logits.
    EXPECT_EQ(r2.output, r1.output);
}

TEST(LazyLadder, BudgetEvictsLruRungAndRefaultIsBitwiseIdentical)
{
    // Two graphs pool one tiny rung budget: every materialization
    // evicts the other graph's lazy rung, and a refault must rebuild
    // deterministically. The whole scenario is run twice; virtual time
    // makes the decision logs byte-identical.
    const auto scenario = [](std::vector<std::string> *log_out) {
        VirtualClock clock;
        ServerOptions options = alwaysDegradeOptions(clock);
        options.rung_budget_bytes = 1;
        InferenceServer server(options);
        int builds_g1 = 0;
        int builds_g2 = 0;
        std::vector<TierSpec> ladder1;
        ladder1.push_back(eagerTier("full", 7));
        ladder1.push_back(lazyTier("eco", 7, &builds_g1));
        std::vector<TierSpec> ladder2;
        ladder2.push_back(eagerTier("full", 8));
        ladder2.push_back(lazyTier("eco", 8, &builds_g2));
        const uint64_t g1 =
            *server.registerGraph("g1", std::move(ladder1), {1, kK});
        const uint64_t g2 =
            *server.registerGraph("g2", std::move(ladder2), {1, kK});

        auto run = [&](uint64_t graph_id) {
            auto future = server.submit(makeRequest(graph_id));
            EXPECT_EQ(server.pump(1), 1u);
            ServeResponse response = future.get();
            EXPECT_TRUE(response.status.ok())
                << response.status.toString();
            EXPECT_EQ(response.report.tier, 1u);
            return response.output;
        };

        const std::vector<double> out1 = run(g1);
        EXPECT_EQ(builds_g1, 1);
        // g2's materialization blows the budget; g1's rung (LRU, not
        // current) is evicted while the rung being served is kept.
        const std::vector<double> out2 = run(g2);
        EXPECT_EQ(builds_g2, 1);
        EXPECT_EQ(server.stats().rung_evictions, 1u);
        EXPECT_EQ(server.stats().lazy_rungs_resident, 1u);
        EXPECT_TRUE(logContains(server, "evict_rung graph=g1 tier=1"));
        // Refault: g1 rebuilds (builder runs again) and the logits are
        // bitwise identical to the pre-eviction run.
        const std::vector<double> out1b = run(g1);
        EXPECT_EQ(builds_g1, 2);
        EXPECT_EQ(server.stats().rung_materializations, 3u);
        EXPECT_EQ(server.stats().rung_evictions, 2u);
        EXPECT_EQ(out1b, out1);
        EXPECT_NE(out1, out2); // different weights, sanity
        if (log_out)
            *log_out = server.decisionLog();
    };

    std::vector<std::string> log_a;
    std::vector<std::string> log_b;
    scenario(&log_a);
    scenario(&log_b);
    ASSERT_GT(log_a.size(), 0u);
    EXPECT_EQ(log_a, log_b);
}

TEST(LazyLadder, WeightStoreMakesRefaultPackFree)
{
    // With a content-addressed store attached, a refaulted rung's
    // weights resolve from the resident cache: the rebuild re-derives
    // the same content key, so no B packing or cluster expansion runs.
    StoreOptions store_options;
    store_options.dir = ""; // resident cache only — no disk in this test
    PackedWeightStore store(store_options);

    VirtualClock clock;
    ServerOptions options = alwaysDegradeOptions(clock);
    options.weight_store = &store;
    options.rung_budget_bytes = 1; // evict after every materialization
    InferenceServer server(options);
    int builds_g1 = 0;
    int builds_g2 = 0;
    std::vector<TierSpec> ladder1;
    ladder1.push_back(eagerTier("full", 7));
    ladder1.push_back(lazyTier("eco", 7, &builds_g1));
    std::vector<TierSpec> ladder2;
    ladder2.push_back(eagerTier("full", 8));
    ladder2.push_back(lazyTier("eco", 8, &builds_g2));
    const uint64_t g1 =
        *server.registerGraph("g1", std::move(ladder1), {1, kK});
    const uint64_t g2 =
        *server.registerGraph("g2", std::move(ladder2), {1, kK});

    auto run = [&](uint64_t graph_id) {
        auto future = server.submit(makeRequest(graph_id));
        EXPECT_EQ(server.pump(1), 1u);
        ServeResponse response = future.get();
        EXPECT_TRUE(response.status.ok()) << response.status.toString();
        return response.output;
    };

    const std::vector<double> out1 = run(g1); // materialize + pack
    run(g2);                                  // evicts g1's rung
    EXPECT_EQ(server.stats().rung_evictions, 1u);

    // Refault g1: the builder re-runs, but the store serves the packed
    // B panels from its resident cache — zero B packs. (A operands are
    // packed per call and still expand, so only b_packs is gated.)
    const PackCounters before = packCounters();
    const std::vector<double> out1b = run(g1);
    const PackCounters after = packCounters();
    EXPECT_EQ(builds_g1, 2);
    EXPECT_EQ(after.b_packs, before.b_packs);
    EXPECT_EQ(out1b, out1);
    EXPECT_GE(store.stats().hits, 1u);
}

// ---------------------------------------------------------------------
// Soak harness determinism
// ---------------------------------------------------------------------

SoakConfig
quickSoak(uint64_t seed)
{
    SoakConfig config;
    config.seed = seed;
    config.duration_s = 0.25;
    config.ladder_tiers = 2;
    return config;
}

TEST(Soak, SameSeedProducesByteIdenticalDecisionLogs)
{
    const SoakConfig config = quickSoak(99);
    const SoakResult first = runServeSoak(config);
    const SoakResult second = runServeSoak(config);
    ASSERT_GT(first.decision_log.size(), 0u);
    EXPECT_EQ(first.decision_log, second.decision_log);
    EXPECT_EQ(first.decision_hash, second.decision_hash);
    EXPECT_EQ(first.stats.submitted, second.stats.submitted);
    EXPECT_EQ(first.stats.completed_ok, second.stats.completed_ok);
    EXPECT_EQ(first.stats.shed, second.stats.shed);
    EXPECT_GT(first.stats.completed_ok, 0u);
    EXPECT_GT(first.goodput_rps, 0.0);
}

TEST(Soak, DecisionLogEntriesCarryMonotonicSequenceAndTimestamp)
{
    const SoakResult result = runServeSoak(quickSoak(7));
    ASSERT_GT(result.decision_log.size(), 2u);
    for (size_t i = 0; i < result.decision_log.size(); ++i) {
        const std::string &line = result.decision_log[i];
        const std::string prefix = "#" + std::to_string(i) + " t=";
        EXPECT_EQ(line.rfind(prefix, 0), 0u)
            << "line " << i << ": " << line;
    }
}

TEST(Soak, DifferentSeedsDiverge)
{
    const SoakResult a = runServeSoak(quickSoak(1));
    const SoakResult b = runServeSoak(quickSoak(2));
    EXPECT_NE(a.decision_hash, b.decision_hash);
}

TEST(Soak, EveryDecisionLogEntryIsTenantStamped)
{
    // Tenancy on or off, terminal/degrade/shed/admit decisions carry
    // a trailing tenant annotation — the forensic key the isolation
    // plane and the flight recorder join on.
    const SoakResult result = runServeSoak(quickSoak(31));
    size_t stamped = 0;
    for (const std::string &line : result.decision_log) {
        const bool lifecycle =
            line.find(" admit seq=") != std::string::npos ||
            line.find(" done seq=") != std::string::npos ||
            line.find(" shed seq=") != std::string::npos ||
            line.find(" expire_queue seq=") != std::string::npos ||
            line.find(" retry seq=") != std::string::npos;
        if (!lifecycle)
            continue;
        EXPECT_NE(line.find(" tenant="), std::string::npos) << line;
        ++stamped;
    }
    EXPECT_GT(stamped, 0u);
}

TEST(Soak, PerClassAccountingIdentityIncludesQuotaAndDrainBuckets)
{
    // The identity documented on PriorityClassStats, with the tenancy
    // buckets live (a quota-storm soak drives mass rate rejections and
    // a graceful drain), on every chaos profile (breaker fast-fail,
    // retry-denied, hedge and quarantine paths) and with tenancy off:
    // every class must still balance.
    std::vector<std::pair<std::string, SoakConfig>> runs;
    SoakConfig storm = quickSoak(17);
    storm.tenant_scenario = "quota-storm";
    storm.graceful_drain = true;
    runs.emplace_back("quota-storm", storm);
    runs.emplace_back("tenancy-off", quickSoak(17));
    for (const char *profile : {"rung-failure", "flaky-backend", "storm",
                                "stall-hedge", "stall-crash"}) {
        SoakConfig chaos = quickSoak(17);
        chaos.chaos_scenario = profile;
        runs.emplace_back(profile, chaos);
    }
    for (const auto &[name, config] : runs) {
        const SoakResult result = runServeSoak(config);
        if (name == "quota-storm") {
            EXPECT_GT(result.stats.rejected_rate, 0u);
        }
        ASSERT_FALSE(result.stats.by_priority.empty()) << name;
        uint64_t submitted = 0;
        for (const auto &[priority, cls] : result.stats.by_priority) {
            EXPECT_EQ(cls.submitted,
                      cls.completed_ok + cls.shed + cls.rejected_full +
                          cls.rejected_invalid + cls.rejected_closed +
                          cls.rejected_quota + cls.rejected_draining +
                          cls.expired_submit + cls.deadline_exceeded +
                          cls.cancelled + cls.failed)
                << name << " class p" << priority;
            submitted += cls.submitted;
        }
        EXPECT_EQ(submitted, result.stats.submitted) << name;
    }
}

/** A fixed-seed pump-mode soak and the decision log it must produce. */
struct GoldenSoak
{
    const char *name;
    SoakConfig config;
    uint64_t hash;  ///< hashDecisionLog of the full log
    size_t lines;   ///< decision-log line count
};

std::vector<GoldenSoak>
goldenSoaks()
{
    const auto chaos = [](const char *scenario) {
        SoakConfig config;
        config.seed = 42;
        config.duration_s = 0.4;
        config.arrival_hz = 600.0;
        config.chaos_scenario = scenario;
        return config;
    };
    const auto tenant = [](const char *scenario, bool drain) {
        SoakConfig config = quickSoak(77);
        config.duration_s = 0.5;
        config.tenant_scenario = scenario;
        config.graceful_drain = drain;
        return config;
    };
    return {
        {"plain", quickSoak(99),
         17688086167335342435ull, 1156},
        {"rung-failure", chaos("rung-failure"),
         15027876235856213396ull, 759},
        {"flaky-backend", chaos("flaky-backend"),
         18169645695563205912ull, 854},
        {"storm", chaos("storm"),
         6217467629127949349ull, 784},
        {"stall-hedge", chaos("stall-hedge"),
         14879737774672398232ull, 852},
        {"stall-crash", chaos("stall-crash"),
         8974660726882517629ull, 794},
        {"noisy-neighbor", tenant("noisy-neighbor", false),
         5498207784317038241ull, 2683},
        {"quota-storm", tenant("quota-storm", false),
         17162153094409923668ull, 1658},
        {"graceful-drain", tenant("noisy-neighbor", true),
         4524651728947476100ull, 2686},
    };
}

TEST(Soak, DecisionLogsMatchGoldenPins)
{
    // Same-seed double runs only prove a commit agrees with itself; these
    // pins catch a change that alters *what* the server decides or logs.
    for (const GoldenSoak &golden : goldenSoaks()) {
        const SoakResult result = runServeSoak(golden.config);
        EXPECT_EQ(result.decision_hash, golden.hash) << golden.name;
        EXPECT_EQ(result.decision_log.size(), golden.lines)
            << golden.name;
    }
}

TEST(Soak, WeightedFairnessContractHoldsUnderSaturation)
{
    // Satellite fairness contract: 10:1 weights, equal offered load,
    // saturated bounded lanes -> per-tenant goodput within ±5 % of the
    // weight split, and the run replays byte-identically.
    SoakConfig config;
    config.seed = 43;
    config.duration_s = 0.75;
    config.arrival_hz = 6000.0;
    config.burst_every_s = 0.0;
    config.oversized_prob = 0.0;
    config.bad_graph_prob = 0.0;
    config.no_deadline_prob = 1.0;
    config.priority_levels = 1;
    config.queue_capacity = 32;
    config.degradation.enabled = false;
    config.ladder_tiers = 1;
    config.tenants = 2;
    config.tenancy.enabled = true;
    config.tenancy.brownout.enabled = false;
    TenantPolicy heavy;
    heavy.weight = 10;
    heavy.max_queue = 16;
    TenantPolicy light;
    light.weight = 1;
    light.max_queue = 16;
    config.tenancy.tenants["tenant0"] = heavy;
    config.tenancy.tenants["tenant1"] = light;

    const SoakResult first = runServeSoak(config);
    const SoakResult second = runServeSoak(config);
    EXPECT_EQ(first.decision_hash, second.decision_hash);
    const double heavy_ok = static_cast<double>(
        first.stats.by_tenant.at("tenant0").completed_ok);
    const double light_ok = static_cast<double>(
        first.stats.by_tenant.at("tenant1").completed_ok);
    ASSERT_GT(heavy_ok, 0.0);
    ASSERT_GT(light_ok, 0.0);
    const double share = heavy_ok / (heavy_ok + light_ok);
    EXPECT_GE(share, (10.0 / 11.0) * 0.95);
    EXPECT_LE(share, (10.0 / 11.0) * 1.05);
}

TEST(Soak, AdversarialArrivalsAreRejectedWithoutDisturbingService)
{
    SoakConfig config = quickSoak(5);
    config.oversized_prob = 0.15;
    config.bad_graph_prob = 0.15;
    const SoakResult result = runServeSoak(config);
    EXPECT_GT(result.stats.rejected_invalid, 0u);
    EXPECT_GT(result.stats.completed_ok, 0u);
    const std::string json = result.toJson();
    for (const char *key :
         {"\"stats\"", "\"decision_hash\"", "\"goodput_rps\"",
          "\"latency_ns\"", "\"completed_ok\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

} // namespace
} // namespace mixgemm
