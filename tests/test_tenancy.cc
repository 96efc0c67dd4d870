/**
 * @file
 * Tests for the multi-tenant isolation plane (serve/tenancy.h): the
 * registry's deterministic id assignment and token buckets, the DWRR
 * scheduler's weight-proportional dispatch and within-lane eviction,
 * tenant-policy JSON parsing (including hostile documents), and the
 * server-level contracts — quota rejections with machine-readable
 * reasons, priority ceilings, accuracy floors, brownout ordering,
 * graceful drain, the 10:1 weighted fairness soak, the per-tenant
 * accounting identity, and same-seed decision-log determinism.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"
#include "runtime/qgraph.h"
#include "serve/server.h"
#include "serve/soak.h"
#include "serve/tenancy.h"

namespace mixgemm
{
namespace
{

// ---------------------------------------------------------------------
// TenantRegistry
// ---------------------------------------------------------------------

TEST(TenantRegistry, ConfiguredTenantsGetIdsInNameOrderThenFirstSeen)
{
    TenancyOptions options;
    options.enabled = true;
    options.tenants["bravo"] = {};
    options.tenants["alpha"] = {};
    TenantRegistry registry(options);
    // Map order: alpha before bravo, regardless of insertion order.
    EXPECT_EQ(registry.findId("alpha"), std::optional<uint32_t>(0));
    EXPECT_EQ(registry.findId("bravo"), std::optional<uint32_t>(1));
    EXPECT_EQ(registry.findId("charlie"), std::nullopt);
    // First-seen registration continues the dense sequence.
    EXPECT_EQ(registry.resolve("charlie"), std::optional<uint32_t>(2));
    EXPECT_EQ(registry.resolve("charlie"), std::optional<uint32_t>(2));
    EXPECT_EQ(registry.count(), 3u);
    EXPECT_EQ(registry.state(2).name, "charlie");
}

TEST(TenantRegistry, MaxTenantsCapsRegistrationNotLookups)
{
    TenancyOptions options;
    options.enabled = true;
    options.max_tenants = 2;
    options.tenants["a"] = {};
    options.tenants["b"] = {};
    TenantRegistry registry(options);
    EXPECT_EQ(registry.resolve("a"), std::optional<uint32_t>(0));
    // The table is full: a new name cannot register...
    EXPECT_EQ(registry.resolve("hostile-churn-1"), std::nullopt);
    EXPECT_EQ(registry.resolve("hostile-churn-2"), std::nullopt);
    EXPECT_EQ(registry.count(), 2u);
    // ...but known names keep resolving.
    EXPECT_EQ(registry.resolve("b"), std::optional<uint32_t>(1));
}

TEST(TenantRegistry, TokenBucketAdmitsBurstThenRefillsFromClock)
{
    TenancyOptions options;
    options.enabled = true;
    TenantPolicy policy;
    policy.rate_per_s = 2.0; // one token per 500 ms
    policy.burst = 2.0;
    options.tenants["metered"] = policy;
    TenantRegistry registry(options);
    TenantState &state = registry.state(*registry.findId("metered"));

    uint64_t now = 1'000'000'000;
    EXPECT_TRUE(registry.tryAcquireToken(state, now));
    EXPECT_TRUE(registry.tryAcquireToken(state, now));
    EXPECT_FALSE(registry.tryAcquireToken(state, now))
        << "burst of 2 must not admit a third back-to-back request";
    // 500 ms refills exactly one token at 2 req/s.
    now += 500'000'000;
    EXPECT_TRUE(registry.tryAcquireToken(state, now));
    EXPECT_FALSE(registry.tryAcquireToken(state, now));
    // A long idle period refills to the burst cap, no further.
    now += 60'000'000'000;
    EXPECT_TRUE(registry.tryAcquireToken(state, now));
    EXPECT_TRUE(registry.tryAcquireToken(state, now));
    EXPECT_FALSE(registry.tryAcquireToken(state, now));
}

TEST(TenantRegistry, ZeroRateMeansUnlimited)
{
    TenancyOptions options;
    options.enabled = true;
    TenantRegistry registry(options);
    TenantState &state = registry.state(*registry.resolve("free"));
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(registry.tryAcquireToken(state, 42));
}

// ---------------------------------------------------------------------
// TenantScheduler (DWRR)
// ---------------------------------------------------------------------

/** Minimal schedulable item: the scheduler only needs tenant_id. */
struct FakeItem
{
    uint32_t tenant_id = 0;
    int priority = 0;
    uint64_t seq = 0;
};

TEST(TenantScheduler, DwrrDispatchesInWeightProportion)
{
    // Two saturated lanes at 10:1 — across any window of 11
    // consecutive dispatches, tenant 0 receives exactly 10.
    TenantScheduler<FakeItem> sched(64, /*quantum=*/1);
    sched.ensureLane(0, /*weight=*/10, /*bound=*/0);
    sched.ensureLane(1, /*weight=*/1, /*bound=*/0);
    const auto less = [](const FakeItem &, const FakeItem &) {
        return false; // never evict
    };
    std::optional<FakeItem> evicted;
    for (uint64_t i = 0; i < 22; ++i) {
        ASSERT_EQ(sched.push(0, FakeItem{0, 0, i}, less, evicted),
                  QueuePush::kPushed);
        ASSERT_EQ(sched.push(1, FakeItem{1, 0, i}, less, evicted),
                  QueuePush::kPushed);
    }
    unsigned counts[2] = {0, 0};
    std::vector<uint32_t> order;
    for (int i = 0; i < 22; ++i) {
        const auto popped = sched.tryPop();
        ASSERT_TRUE(popped.has_value());
        ++counts[popped->tenant];
        order.push_back(popped->tenant);
    }
    EXPECT_EQ(counts[0], 20u);
    EXPECT_EQ(counts[1], 2u);
    // The dispatch pattern is the exact DWRR cycle, not merely the
    // right aggregate: ten of lane 0, one of lane 1, repeating.
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], (i % 11) == 10 ? 1u : 0u) << "at " << i;
}

TEST(TenantScheduler, PopWaitBlocksUntilProducerArrives)
{
    TenantScheduler<FakeItem> sched(1, /*quantum=*/1);
    sched.ensureLane(0, /*weight=*/1, /*bound=*/0);
    std::thread producer([&sched] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        std::optional<FakeItem> evicted;
        sched.push(
            0, FakeItem{0, 0, 42},
            [](const FakeItem &, const FakeItem &) { return false; },
            evicted);
    });
    const auto popped = sched.popWait();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->item.seq, 42u);
    producer.join();
    // Closed and drained: the blocking pop returns instead of waiting.
    sched.close();
    EXPECT_FALSE(sched.popWait().has_value());
}

TEST(TenantScheduler, EmptiedLaneForfeitsDeficitNoCreditHoarding)
{
    TenantScheduler<FakeItem> sched(64, /*quantum=*/4);
    sched.ensureLane(0, /*weight=*/8, 0);
    sched.ensureLane(1, /*weight=*/1, 0);
    const auto less = [](const FakeItem &, const FakeItem &) {
        return false;
    };
    std::optional<FakeItem> evicted;
    // Lane 0 holds one item but a 32-grain deficit allowance; popping
    // its only item must zero the leftover deficit.
    ASSERT_EQ(sched.push(0, FakeItem{0, 0, 0}, less, evicted),
              QueuePush::kPushed);
    ASSERT_EQ(sched.push(1, FakeItem{1, 0, 1}, less, evicted),
              QueuePush::kPushed);
    auto popped = sched.tryPop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->tenant, 0u);
    EXPECT_EQ(sched.laneDeficit(0), 0u)
        << "an emptied lane must not hoard deficit while idle";
    popped = sched.tryPop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->tenant, 1u);
    EXPECT_EQ(sched.tryPop(), std::nullopt);
}

TEST(TenantScheduler, LaneBoundEvictsWithinLaneOnly)
{
    // Global capacity 8, lane 0 bounded to 2. Its third push must
    // displace lane-0 work (or be rejected) even though the shared
    // queue has room, and lane 1's entries are never candidates.
    TenantScheduler<FakeItem> sched(8, 1);
    sched.ensureLane(0, 1, /*bound=*/2);
    sched.ensureLane(1, 1, /*bound=*/0);
    const auto less = [](const FakeItem &a, const FakeItem &b) {
        return a.priority < b.priority;
    };
    std::optional<FakeItem> evicted;
    ASSERT_EQ(sched.push(1, FakeItem{1, 0, 100}, less, evicted),
              QueuePush::kPushed);
    ASSERT_EQ(sched.push(0, FakeItem{0, 1, 0}, less, evicted),
              QueuePush::kPushed);
    ASSERT_EQ(sched.push(0, FakeItem{0, 2, 1}, less, evicted),
              QueuePush::kPushed);
    // Equal priority: rejected, nothing evicted anywhere.
    EXPECT_EQ(sched.push(0, FakeItem{0, 1, 2}, less, evicted),
              QueuePush::kRejected);
    EXPECT_EQ(sched.laneDepth(0), 2u);
    EXPECT_EQ(sched.laneDepth(1), 1u);
    // Higher priority: displaces lane 0's cheapest, not lane 1's
    // zero-priority entry.
    EXPECT_EQ(sched.push(0, FakeItem{0, 9, 3}, less, evicted),
              QueuePush::kPushedEvicted);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->tenant_id, 0u);
    EXPECT_EQ(evicted->priority, 1);
    EXPECT_EQ(sched.laneDepth(0), 2u);
    EXPECT_EQ(sched.laneDepth(1), 1u);
}

// ---------------------------------------------------------------------
// Tenant-policy JSON
// ---------------------------------------------------------------------

TEST(TenancyJson, ParsesFullDocument)
{
    const auto parsed = parseTenancyJson(R"({
        "default": {"weight": 2, "rate_per_s": 10.5, "burst": 3,
                    "max_queue": 4, "max_in_flight": 6,
                    "priority_ceiling": 1, "tier_floor": 2},
        "tenants": {"victim": {"weight": 10, "tier_floor": 0},
                    "aggressor": {"weight": 1, "rate_per_s": 200}},
        "brownout": {"enabled": true, "high_watermark": 0.6,
                     "low_watermark": 0.2, "over_share_factor": 1.5,
                     "max_steps": 3, "min_dwell_ns": 1000},
        "quantum": 2,
        "max_tenants": 32
    })");
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const TenancyOptions &options = *parsed;
    EXPECT_TRUE(options.enabled);
    EXPECT_EQ(options.default_policy.weight, 2u);
    EXPECT_DOUBLE_EQ(options.default_policy.rate_per_s, 10.5);
    EXPECT_EQ(options.default_policy.max_queue, 4u);
    EXPECT_EQ(options.default_policy.max_in_flight, 6u);
    EXPECT_EQ(options.default_policy.priority_ceiling, 1);
    EXPECT_EQ(options.default_policy.tier_floor, 2);
    ASSERT_EQ(options.tenants.size(), 2u);
    EXPECT_EQ(options.tenants.at("victim").weight, 10u);
    EXPECT_EQ(options.tenants.at("victim").tier_floor, 0);
    EXPECT_DOUBLE_EQ(options.tenants.at("aggressor").rate_per_s, 200.0);
    EXPECT_DOUBLE_EQ(options.brownout.high_watermark, 0.6);
    EXPECT_EQ(options.brownout.max_steps, 3u);
    EXPECT_EQ(options.quantum, 2u);
    EXPECT_EQ(options.max_tenants, 32u);
}

TEST(TenancyJson, EmptyDocumentYieldsEnabledDefaults)
{
    const auto parsed = parseTenancyJson("{}");
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_TRUE(parsed->enabled);
    EXPECT_EQ(parsed->default_policy.weight, 1u);
    EXPECT_TRUE(parsed->tenants.empty());
}

TEST(TenancyJson, HostileDocumentsAreRejectedNotCrashed)
{
    const char *bad[] = {
        "",                                   // empty
        "not json",                           // garbage
        "[1,2,3]",                            // wrong root kind
        "{\"default\": 7}",                   // policy must be object
        "{\"default\": {\"weight\": 0}}",     // weight below 1
        "{\"default\": {\"weight\": -3}}",    // negative weight
        "{\"default\": {\"weight\": 1e300}}", // absurd weight
        "{\"default\": {\"rate_per_s\": -1}}",
        "{\"default\": {\"rate_per_s\": 1e400}}", // non-finite
        "{\"default\": {\"burst\": 0}}",          // burst below 1
        "{\"default\": {\"tier_floor\": 1000}}",  // past any ladder
        "{\"tenants\": {\"a\": 5}}",
        "{\"brownout\": {\"high_watermark\": \"high\"}}",
        "{\"quantum\": 0}",
        "{\"max_tenants\": 0}",
        "{\"default\": {\"weight\": 1}",     // truncated
        "{\"unknown_key\": 1}",              // unknown top-level key
    };
    for (const char *doc : bad) {
        const auto parsed = parseTenancyJson(doc);
        EXPECT_FALSE(parsed.ok()) << "accepted hostile doc: " << doc;
    }
}

TEST(TenancyScenarios, NamedScenariosResolveAndUnknownIsAnError)
{
    const auto noisy = tenantScenarioByName("noisy-neighbor");
    ASSERT_TRUE(noisy.ok());
    EXPECT_TRUE(noisy->options.enabled);
    EXPECT_EQ(noisy->options.tenants.at("victim").weight, 10u);
    EXPECT_EQ(noisy->options.tenants.at("aggressor").weight, 1u);
    ASSERT_EQ(noisy->arrival_mix.size(), 2u);

    const auto storm = tenantScenarioByName("quota-storm");
    ASSERT_TRUE(storm.ok());
    EXPECT_EQ(storm->options.tenants.size(), 4u);
    for (const auto &[name, policy] : storm->options.tenants) {
        EXPECT_GT(policy.rate_per_s, 0.0) << name;
        EXPECT_GT(policy.max_in_flight, 0u) << name;
    }

    const auto unknown = tenantScenarioByName("nope");
    ASSERT_FALSE(unknown.ok());
    EXPECT_NE(unknown.status().message().find("noisy-neighbor"),
              std::string::npos)
        << "the error should list the valid names";
}

// ---------------------------------------------------------------------
// Server-level quota / bulkhead / drain contracts (pump mode)
// ---------------------------------------------------------------------

constexpr uint64_t kK = 32;
constexpr uint64_t kN = 8;

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
    for (unsigned t = 0; t < tiers; ++t) {
        TierSpec tier;
        tier.graph = makeLinearGraph(7);
        tier.label = "t" + std::to_string(t);
        ladder.push_back(std::move(tier));
    }
    auto id = server.registerGraph("lin", std::move(ladder), {1, kK});
    EXPECT_TRUE(id.ok()) << id.status().toString();
    return *id;
}

ServeRequest
makeRequest(uint64_t graph_id, const std::string &tenant,
            int priority = 0)
{
    ServeRequest request;
    request.graph_id = graph_id;
    Rng rng(11);
    std::vector<double> data(kK);
    for (auto &v : data)
        v = rng.uniformReal(-1.0, 1.0);
    request.input = Tensor<double>({1, kK}, std::move(data));
    request.priority = priority;
    request.tenant = tenant;
    return request;
}

bool
logContains(const InferenceServer &server, const std::string &needle)
{
    for (const std::string &line : server.decisionLog())
        if (line.find(needle) != std::string::npos)
            return true;
    return false;
}

TEST(ServerTenancy, RateLimitRejectsWithMachineReadableReason)
{
    VirtualClock clock(1'000'000'000);
    ServerOptions options = pumpOptions(clock);
    options.tenancy.enabled = true;
    TenantPolicy metered;
    metered.rate_per_s = 2.0;
    metered.burst = 1.0;
    options.tenancy.tenants["metered"] = metered;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);

    auto ok = server.submit(makeRequest(id, "metered"));
    auto limited = server.submit(makeRequest(id, "metered"));
    const Status status = limited.get().status;
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(status.message().rfind("tenant_rate:", 0), 0u)
        << status.message();
    EXPECT_TRUE(logContains(server, "reject_rate seq=1"));
    EXPECT_TRUE(logContains(server, "tenant=metered"));

    // 500 ms refills one token; the tenant is admitted again.
    clock.advanceNs(500'000'000);
    auto refilled = server.submit(makeRequest(id, "metered"));
    server.pump(10);
    EXPECT_TRUE(ok.get().status.ok());
    EXPECT_TRUE(refilled.get().status.ok());

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.rejected_rate, 1u);
    EXPECT_EQ(stats.by_tenant.at("metered").rejected_rate, 1u);
    EXPECT_EQ(stats.by_priority.at(0).rejected_quota, 1u);
}

TEST(ServerTenancy, BulkheadCapsOutstandingAndReleasesOnCompletion)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.tenancy.enabled = true;
    TenantPolicy bulk;
    bulk.max_in_flight = 2;
    options.tenancy.tenants["bulk"] = bulk;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);

    auto a = server.submit(makeRequest(id, "bulk"));
    auto b = server.submit(makeRequest(id, "bulk"));
    auto rejected = server.submit(makeRequest(id, "bulk"));
    const Status status = rejected.get().status;
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(status.message().rfind("tenant_bulkhead:", 0), 0u)
        << status.message();
    // Completions release the bulkhead: the tenant fits again.
    EXPECT_EQ(server.pump(10), 2u);
    EXPECT_TRUE(a.get().status.ok());
    EXPECT_TRUE(b.get().status.ok());
    auto after = server.submit(makeRequest(id, "bulk"));
    server.pump(10);
    EXPECT_TRUE(after.get().status.ok());

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.rejected_bulkhead, 1u);
    EXPECT_EQ(stats.by_tenant.at("bulk").rejected_bulkhead, 1u);
}

TEST(ServerTenancy, PriorityCeilingClampsAndLogs)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.tenancy.enabled = true;
    TenantPolicy humble;
    humble.priority_ceiling = 1;
    options.tenancy.tenants["humble"] = humble;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);

    auto future = server.submit(makeRequest(id, "humble", 9));
    server.pump(10);
    const ServeResponse response = future.get();
    EXPECT_TRUE(response.status.ok());
    EXPECT_EQ(response.report.priority, 1);
    EXPECT_TRUE(
        logContains(server, "priority_clamp seq=0 prio=9->1"));
    EXPECT_EQ(server.stats().priority_clamps, 1u);
}

TEST(ServerTenancy, TenantTableOverflowRejectsWithLimitReason)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.tenancy.enabled = true;
    options.tenancy.max_tenants = 1;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);

    auto first = server.submit(makeRequest(id, "only"));
    auto churn = server.submit(makeRequest(id, "hostile-churn"));
    const Status status = churn.get().status;
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(status.message().rfind("tenant_limit:", 0), 0u)
        << status.message();
    server.pump(10);
    EXPECT_TRUE(first.get().status.ok());

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.rejected_tenant_limit, 1u);
    EXPECT_EQ(
        stats.by_tenant.at(TenantRegistry::kOverflowName).rejected_limit,
        1u);
    EXPECT_EQ(stats.tenant_count, 1u);
}

TEST(ServerTenancy, TierFloorStopsDegradationForThatTenant)
{
    // Global degradation pinned at the deepest rung; the floored
    // tenant still executes no deeper than its floor while the
    // unfloored one rides the full ladder.
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.tenancy.enabled = true;
    options.degradation.enabled = true;
    options.degradation.high_watermark = 0.0; // permanently degraded
    options.degradation.low_watermark = 0.0;
    TenantPolicy floored;
    floored.tier_floor = 1;
    options.tenancy.tenants["floored"] = floored;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server, /*tiers=*/3);

    // Push the global level to the bottom of the ladder.
    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 6; ++i)
        futures.push_back(server.submit(makeRequest(id, "greedy")));
    futures.push_back(server.submit(makeRequest(id, "floored")));
    server.pump(20);
    unsigned floored_max = 0, greedy_max = 0;
    for (auto &future : futures) {
        const ServeResponse response = future.get();
        ASSERT_TRUE(response.status.ok());
        if (response.report.tenant == "floored")
            floored_max = std::max(floored_max, response.report.tier);
        else
            greedy_max = std::max(greedy_max, response.report.tier);
    }
    EXPECT_LE(floored_max, 1u) << "accuracy floor violated";
    EXPECT_EQ(greedy_max, 2u)
        << "the unfloored tenant should reach the deepest rung";
}

TEST(ServerTenancy, GracefulDrainRejectsNewWorkAndFinishesQueued)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.tenancy.enabled = true;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);

    auto queued = server.submit(makeRequest(id, "t0"));
    server.beginDrain();
    EXPECT_FALSE(server.drained()) << "work is still queued";
    auto late = server.submit(makeRequest(id, "t1"));
    const Status status = late.get().status;
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(status.message().rfind("tenant_drain:", 0), 0u)
        << status.message();

    EXPECT_TRUE(logContains(server, "drain_begin depth=1"));
    EXPECT_TRUE(logContains(server, "drain_tenant"));
    server.pump(10);
    EXPECT_TRUE(queued.get().status.ok());
    EXPECT_TRUE(server.drained());
    EXPECT_TRUE(server.awaitDrained(0));

    const ServerStats stats = server.stats();
    EXPECT_TRUE(stats.draining);
    EXPECT_EQ(stats.rejected_draining, 1u);
    EXPECT_EQ(stats.by_priority.at(0).rejected_draining, 1u);
    EXPECT_EQ(stats.drain_cancelled, 0u);
}

TEST(ServerTenancy, ShutdownDuringDrainCancelsLeftoversWithAccounting)
{
    VirtualClock clock;
    ServerOptions options = pumpOptions(clock);
    options.tenancy.enabled = true;
    InferenceServer server(options);
    const uint64_t id = registerLinear(server);
    auto a = server.submit(makeRequest(id, "t0"));
    auto b = server.submit(makeRequest(id, "t1"));
    server.beginDrain();
    server.shutdown(); // drain never pumped: queued work is dropped
    EXPECT_EQ(a.get().status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(b.get().status.code(), StatusCode::kUnavailable);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.drain_cancelled, 2u);
    EXPECT_EQ(stats.by_tenant.at("t0").drain_cancelled, 1u);
    EXPECT_EQ(stats.by_tenant.at("t1").drain_cancelled, 1u);
}

// ---------------------------------------------------------------------
// Fairness, identity, and determinism contracts (soak harness)
// ---------------------------------------------------------------------

/** Sum of the per-tenant terminal buckets that must equal submitted
 * (the identity documented on TenantStats). */
uint64_t
terminalSum(const TenantStats &ts)
{
    return ts.completed_ok + ts.shed + ts.rejected_full +
           ts.rejected_invalid + ts.rejected_closed + ts.rejected_rate +
           ts.rejected_bulkhead + ts.rejected_limit +
           ts.rejected_draining + ts.expired_submit +
           ts.deadline_exceeded + ts.cancelled + ts.failed;
}

SoakConfig
tenancySoak(uint64_t seed)
{
    SoakConfig config;
    config.seed = seed;
    config.duration_s = 0.5;
    config.ladder_tiers = 2;
    config.tenant_scenario = "noisy-neighbor";
    return config;
}

TEST(TenancySoak, SameSeedScenarioRunsAreByteIdentical)
{
    const SoakConfig config = tenancySoak(77);
    const SoakResult first = runServeSoak(config);
    const SoakResult second = runServeSoak(config);
    ASSERT_GT(first.decision_log.size(), 0u);
    EXPECT_EQ(first.decision_log, second.decision_log);
    EXPECT_EQ(first.decision_hash, second.decision_hash);
    EXPECT_GT(first.stats.completed_ok, 0u);
    // Tenancy decisions are part of the log: dispatch lines carry the
    // DWRR deficit, admissions the tenant.
    bool saw_dispatch = false;
    for (const std::string &line : first.decision_log)
        if (line.find(" dispatch seq=") != std::string::npos &&
            line.find(" deficit=") != std::string::npos &&
            line.find(" tenant=") != std::string::npos)
            saw_dispatch = true;
    EXPECT_TRUE(saw_dispatch)
        << "dispatch decisions must log tenant and deficit state";
}

TEST(TenancySoak, PerTenantAccountingIdentityHoldsAfterDrain)
{
    // Both tenant scenarios, every chaos profile (breaker fast-fail,
    // retry-denied, hedge and quarantine paths) and tenancy off.
    std::vector<std::pair<std::string, SoakConfig>> runs;
    for (const char *scenario : {"noisy-neighbor", "quota-storm"}) {
        SoakConfig config = tenancySoak(13);
        config.tenant_scenario = scenario;
        runs.emplace_back(scenario, config);
    }
    SoakConfig off = tenancySoak(13);
    off.tenant_scenario.clear();
    runs.emplace_back("tenancy-off", off);
    for (const char *profile : {"rung-failure", "flaky-backend", "storm",
                                "stall-hedge", "stall-crash"}) {
        SoakConfig config = off;
        config.chaos_scenario = profile;
        runs.emplace_back(profile, config);
    }
    for (const auto &[name, config] : runs) {
        const SoakResult result = runServeSoak(config);
        ASSERT_FALSE(result.stats.by_tenant.empty()) << name;
        uint64_t total_submitted = 0;
        for (const auto &[tenant, ts] : result.stats.by_tenant) {
            EXPECT_EQ(ts.submitted, terminalSum(ts))
                << name << " tenant " << tenant;
            total_submitted += ts.submitted;
        }
        EXPECT_EQ(total_submitted, result.stats.submitted) << name;
    }
}

TEST(TenancySoak, WeightedFairnessTenToOneWithinFivePercent)
{
    // Two tenants with equal offered load and 10:1 weights, driven
    // well past capacity with no deadlines: under a saturated queue
    // DWRR must split goodput 10:1 within ±5 % (the ISSUE acceptance
    // criterion).
    SoakConfig config;
    config.seed = 21;
    config.duration_s = 1.0;
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
    // Bounded sub-queues keep both lanes backlogged: without them the
    // rarely-served light lane would slowly monopolize the shared
    // storage and starve the heavy lane of queue slots.
    TenantPolicy heavy;
    heavy.weight = 10;
    heavy.max_queue = 16;
    TenantPolicy light;
    light.weight = 1;
    light.max_queue = 16;
    config.tenancy.tenants["tenant0"] = heavy;
    config.tenancy.tenants["tenant1"] = light;

    const SoakResult result = runServeSoak(config);
    const uint64_t heavy_ok =
        result.stats.by_tenant.at("tenant0").completed_ok;
    const uint64_t light_ok =
        result.stats.by_tenant.at("tenant1").completed_ok;
    ASSERT_GT(heavy_ok, 0u);
    ASSERT_GT(light_ok, 0u);
    const double share =
        static_cast<double>(heavy_ok) /
        static_cast<double>(heavy_ok + light_ok);
    const double expected = 10.0 / 11.0;
    EXPECT_GE(share, expected * 0.95)
        << "heavy=" << heavy_ok << " light=" << light_ok;
    EXPECT_LE(share, expected * 1.05)
        << "heavy=" << heavy_ok << " light=" << light_ok;
}

TEST(TenancySoak, NoisyNeighborBrownoutHitsAggressorFirst)
{
    SoakConfig config = tenancySoak(5);
    config.duration_s = 1.0;
    const SoakResult result = runServeSoak(config);
    const TenantStats &aggressor =
        result.stats.by_tenant.at("aggressor");
    const TenantStats &victim = result.stats.by_tenant.at("victim");
    EXPECT_GT(aggressor.brownout_steps, 0u)
        << "the over-share tenant must brown out under pressure";
    EXPECT_EQ(victim.brownout_steps, 0u)
        << "the in-quota victim must not brown out";
    EXPECT_GT(victim.completed_ok, 0u);
}

TEST(TenancySoak, DisabledTenancyKeepsTheDefaultPath)
{
    // Tenancy off: no tenant table, no quota buckets, and one FIFO
    // lane whose pops are not logged (no DWRR dispatch entries), still
    // deterministic.
    SoakConfig config;
    config.seed = 99;
    config.duration_s = 0.25;
    config.ladder_tiers = 2;
    const SoakResult first = runServeSoak(config);
    const SoakResult second = runServeSoak(config);
    EXPECT_EQ(first.decision_hash, second.decision_hash);
    EXPECT_EQ(first.stats.tenant_count, 0u);
    EXPECT_EQ(first.stats.rejected_rate, 0u);
    EXPECT_EQ(first.stats.brownout_steps, 0u);
    for (const std::string &line : first.decision_log)
        EXPECT_EQ(line.find(" dispatch seq="), std::string::npos)
            << "disabled tenancy must not log dispatches: " << line;
    // Terminal accounting still labels the default tenant.
    ASSERT_EQ(first.stats.by_tenant.count("default"), 1u);
    EXPECT_EQ(first.stats.by_tenant.at("default").completed_ok,
              first.stats.completed_ok);
}

} // namespace
} // namespace mixgemm
