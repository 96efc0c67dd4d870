/**
 * @file
 * Unit tests for src/common: bit utilities, RNG determinism, running
 * statistics, counters, the table printer, and the worker thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bitutils.h"
#include "common/bounded_queue.h"
#include "common/cancel.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"

namespace mixgemm
{
namespace
{

TEST(BitUtils, Mask64)
{
    EXPECT_EQ(mask64(0), 0u);
    EXPECT_EQ(mask64(1), 1u);
    EXPECT_EQ(mask64(8), 0xffu);
    EXPECT_EQ(mask64(63), 0x7fffffffffffffffull);
    EXPECT_EQ(mask64(64), ~uint64_t{0});
}

TEST(BitUtils, Mask128)
{
    EXPECT_EQ(mask128(0), uint128{0});
    EXPECT_EQ(static_cast<uint64_t>(mask128(64)), ~uint64_t{0});
    EXPECT_EQ(mask128(128), ~uint128{0});
    EXPECT_EQ(static_cast<uint64_t>(mask128(65) >> 64), 1u);
}

TEST(BitUtils, SignExtend64)
{
    EXPECT_EQ(signExtend64(0x7, 3), -1);
    EXPECT_EQ(signExtend64(0x3, 3), 3);
    EXPECT_EQ(signExtend64(0x4, 3), -4);
    EXPECT_EQ(signExtend64(0x80, 8), -128);
    EXPECT_EQ(signExtend64(0x7f, 8), 127);
    EXPECT_EQ(signExtend64(~uint64_t{0}, 64), -1);
}

TEST(BitUtils, SignExtend64RoundTripAllNarrowValues)
{
    for (unsigned bits = 2; bits <= 16; ++bits) {
        const int64_t lo = -(int64_t{1} << (bits - 1));
        const int64_t hi = (int64_t{1} << (bits - 1)) - 1;
        for (int64_t v = lo; v <= hi; ++v) {
            const uint64_t packed =
                static_cast<uint64_t>(v) & mask64(bits);
            EXPECT_EQ(signExtend64(packed, bits), v)
                << "bits=" << bits << " v=" << v;
        }
    }
}

TEST(BitUtils, CeilLog2)
{
    EXPECT_EQ(ceilLog2(0), 0u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(5), 3u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(BitUtils, DivCeilRoundUp)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
    EXPECT_EQ(roundUp(5, 4), 8u);
    EXPECT_EQ(roundUp(8, 4), 8u);
}

TEST(BitUtils, Fits)
{
    EXPECT_TRUE(fitsSigned(-4, 3));
    EXPECT_TRUE(fitsSigned(3, 3));
    EXPECT_FALSE(fitsSigned(4, 3));
    EXPECT_FALSE(fitsSigned(-5, 3));
    EXPECT_TRUE(fitsUnsigned(7, 3));
    EXPECT_FALSE(fitsUnsigned(8, 3));
}

TEST(BitUtils, BitSlice128)
{
    const uint128 v = (uint128{0xab} << 80) | (uint128{0x1a} << 8) | 0x3c;
    EXPECT_EQ(bitSlice128(v, 7, 0), 0x3cu);
    EXPECT_EQ(bitSlice128(v, 15, 8), 0x1au);
    EXPECT_EQ(bitSlice128(v, 87, 80), 0xabu);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = rng.uniformInt(-5, 9);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(11);
    bool seen[16] = {};
    for (int i = 0; i < 4000; ++i)
        seen[rng.uniformInt(0, 15)] = true;
    for (int v = 0; v < 16; ++v)
        EXPECT_TRUE(seen[v]) << "value " << v << " never drawn";
}

TEST(Rng, UniformRealBounds)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(5);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RunningStat, Summary)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    s.add(2.0);
    s.add(8.0);
    EXPECT_EQ(s.count(), 2u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.geomean(), 4.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
}

TEST(RunningStat, GeomeanOverNonPositiveSamplesReturnsZero)
{
    // log(v) is undefined at v <= 0; a partial log-sum would silently
    // report the geomean of the positive subset. The stat returns 0
    // instead (and warns once per process).
    RunningStat zero;
    zero.add(4.0);
    zero.add(0.0);
    EXPECT_EQ(zero.geomean(), 0.0);
    EXPECT_DOUBLE_EQ(zero.mean(), 2.0); // other summaries unaffected

    RunningStat negative;
    negative.add(-2.0);
    negative.add(8.0);
    EXPECT_EQ(negative.geomean(), 0.0);
    EXPECT_DOUBLE_EQ(negative.min(), -2.0);

    RunningStat positive;
    positive.add(2.0);
    positive.add(8.0);
    EXPECT_DOUBLE_EQ(positive.geomean(), 4.0);
}

TEST(CounterSet, IncGetClear)
{
    CounterSet c;
    EXPECT_EQ(c.get("missing"), 0u);
    c.inc("cycles");
    c.inc("cycles", 9);
    EXPECT_EQ(c.get("cycles"), 10u);
    c.set("cycles", 3);
    EXPECT_EQ(c.get("cycles"), 3u);
    c.clear();
    EXPECT_EQ(c.get("cycles"), 0u);
}

TEST(CounterSet, MergeScaled)
{
    CounterSet a;
    CounterSet b;
    a.inc("x", 2);
    b.inc("x", 5);
    b.inc("y", 1);
    a.mergeScaled(b, 3);
    EXPECT_EQ(a.get("x"), 17u);
    EXPECT_EQ(a.get("y"), 3u);
}

TEST(CounterSet, InternedHandlesAliasCanonicalNames)
{
    // The enum handles and the canonical string names address the same
    // slots, so hot-path (enum) and reporting-path (string) views agree.
    CounterSet c;
    c.inc(Counter::BsIp, 40);
    c.inc("bs_ip", 2);
    EXPECT_EQ(c.get(Counter::BsIp), 42u);
    EXPECT_EQ(c.get("bs_ip"), 42u);
    c.set("engine_busy_cycles", 7);
    EXPECT_EQ(c.get(Counter::EngineBusyCycles), 7u);
    EXPECT_EQ(std::string(counterName(Counter::MicroKernels)),
              "micro_kernels");
    c.clear();
    EXPECT_EQ(c.get(Counter::BsIp), 0u);
}

TEST(CounterSet, AllMergesInternedAndDynamicCounters)
{
    CounterSet c;
    c.inc(Counter::BsSet);
    c.inc(Counter::Ops, 100);
    c.inc("custom_counter", 5);
    const auto all = c.all();
    EXPECT_EQ(all.at("bs_set"), 1u);
    EXPECT_EQ(all.at("ops"), 100u);
    EXPECT_EQ(all.at("custom_counter"), 5u);
    // Never-touched interned counters stay out of the report.
    EXPECT_EQ(all.count("bs_get"), 0u);
}

TEST(CounterSet, AllReportsTouchedInternedZeros)
{
    // Once a slot has been inc()'d or set() — even to zero — it shows
    // in all(), exactly like a string counter keeps its entry at zero.
    CounterSet c;
    c.inc(Counter::BsGet, 0);
    c.set(Counter::MicroKernels, 0);
    c.inc("dynamic_zero", 0);
    const auto all = c.all();
    EXPECT_EQ(all.at("bs_get"), 0u);
    EXPECT_EQ(all.at("micro_kernels"), 0u);
    EXPECT_EQ(all.at("dynamic_zero"), 0u);
    EXPECT_EQ(all.count("bs_ip"), 0u); // untouched stays out
}

TEST(CounterSet, TouchedSlotsSurviveMergeRoundTrips)
{
    CounterSet touched;
    touched.inc(Counter::BsGet, 0);
    touched.inc("custom", 3);

    CounterSet merged;
    merged.merge(touched);
    auto all = merged.all();
    EXPECT_EQ(all.at("bs_get"), 0u);
    EXPECT_EQ(all.at("custom"), 3u);

    CounterSet scaled;
    scaled.mergeScaled(touched, 5);
    all = scaled.all();
    EXPECT_EQ(all.at("bs_get"), 0u);
    EXPECT_EQ(all.at("custom"), 15u);
    EXPECT_EQ(all.count("bs_set"), 0u);

    // clear() keeps the touched set, mirroring string counters, so a
    // reused CounterSet reports the same keys before and after.
    merged.clear();
    EXPECT_EQ(merged.all().at("bs_get"), 0u);
    EXPECT_EQ(merged.all().at("custom"), 0u);
}

TEST(CounterSet, MergeCoversInternedSlots)
{
    CounterSet a, b;
    a.inc(Counter::BsIp, 10);
    b.inc(Counter::BsIp, 5);
    b.inc("bs_get", 2); // string route to an interned slot
    b.inc("other", 1);
    a.merge(b);
    EXPECT_EQ(a.get(Counter::BsIp), 15u);
    EXPECT_EQ(a.get(Counter::BsGet), 2u);
    EXPECT_EQ(a.get("other"), 1u);
    CounterSet s;
    s.mergeScaled(b, 4);
    EXPECT_EQ(s.get(Counter::BsIp), 20u);
    EXPECT_EQ(s.get("other"), 4u);
}

TEST(Table, RendersAlignedCells)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "12345"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| name  | value |"), std::string::npos);
    EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
    EXPECT_NE(out.find("| b     | 12345 |"), std::string::npos);
}

TEST(Table, Format)
{
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
    EXPECT_EQ(Table::fmtInt(0), "0");
    EXPECT_EQ(Table::fmtInt(999), "999");
    EXPECT_EQ(Table::fmtInt(1000), "1,000");
    EXPECT_EQ(Table::fmtInt(1234567), "1,234,567");
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(Logging, StrCat)
{
    EXPECT_EQ(strCat("a", 1, "-w", 2), "a1-w2");
}

TEST(Logging, LevelGatesSink)
{
    // Capture stderr while driving the level knob; restore both after.
    const LogLevel saved = logLevel();
    std::ostringstream captured;
    std::streambuf *old = std::cerr.rdbuf(captured.rdbuf());

    setLogLevel(LogLevel::Silent);
    warn("suppressed");
    inform("suppressed");
    debug("suppressed");
    EXPECT_EQ(captured.str(), "");

    setLogLevel(LogLevel::Warn);
    inform("suppressed");
    debug("suppressed");
    warn("shown");
    EXPECT_EQ(captured.str(), "warn: shown\n");

    captured.str("");
    setLogLevel(LogLevel::Debug);
    debug("shown");
    inform("shown");
    EXPECT_EQ(captured.str(), "debug: shown\ninfo: shown\n");

    std::cerr.rdbuf(old);
    setLogLevel(saved);
}

TEST(Logging, LevelRoundTrips)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(saved);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.workerCount(), 3u);
    const unsigned tasks = 100;
    std::vector<std::atomic<int>> hits(tasks);
    pool.run(tasks, [&](unsigned t) { ++hits[t]; });
    for (unsigned t = 0; t < tasks; ++t)
        EXPECT_EQ(hits[t].load(), 1) << "task " << t;
}

TEST(ThreadPool, ZeroWorkerPoolRunsSerially)
{
    ThreadPool pool(0);
    std::vector<unsigned> order;
    pool.run(5, [&](unsigned t) { order.push_back(t); });
    EXPECT_EQ(order, (std::vector<unsigned>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ReusableAcrossRuns)
{
    ThreadPool pool(2);
    for (unsigned round = 0; round < 20; ++round) {
        std::atomic<unsigned> sum{0};
        pool.run(7, [&](unsigned t) { sum += t; });
        EXPECT_EQ(sum.load(), 21u) << "round " << round;
    }
}

TEST(ThreadPool, PropagatesTaskException)
{
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    EXPECT_THROW(pool.run(8,
                          [&](unsigned t) {
                              if (t == 3)
                                  fatal("task failure");
                              ++completed;
                          }),
                 FatalError);
    // The remaining tasks still ran; the pool stays usable.
    EXPECT_EQ(completed.load(), 7);
    std::atomic<int> after{0};
    pool.run(4, [&](unsigned) { ++after; });
    EXPECT_EQ(after.load(), 4);
}

TEST(ThreadPool, HardwareConcurrencyNeverZero)
{
    EXPECT_GE(ThreadPool::hardwareConcurrency(), 1u);
    EXPECT_GE(resolveThreadCount(0), 1u);
    EXPECT_EQ(resolveThreadCount(3), 3u);
}

TEST(BoundedQueue, TryPushRespectsCapacityAndFifoOrder)
{
    BoundedQueue<int> queue(2);
    EXPECT_EQ(queue.capacity(), 2u);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_TRUE(queue.tryPush(2));
    EXPECT_FALSE(queue.tryPush(3)) << "push past capacity must fail";
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.tryPop(), std::optional<int>(1));
    EXPECT_EQ(queue.tryPop(), std::optional<int>(2));
    EXPECT_EQ(queue.tryPop(), std::nullopt);
}

/** Every entry in one group: the single-lane (tenancy-off) case. */
constexpr auto kAnyEntry = [](const auto &) { return true; };

TEST(BoundedQueue, PushEvictingDisplacesOnlyLessValuableEntries)
{
    // Retention by plain int value: smaller is less worth keeping.
    const auto less = [](int a, int b) { return a < b; };
    BoundedQueue<int> queue(2);
    std::optional<int> evicted;
    const auto push = [&](int value) {
        return queue.pushEvictingWithin(std::move(value), less, kAnyEntry,
                                        false, evicted);
    };
    EXPECT_EQ(push(10), QueuePush::kPushed);
    EXPECT_EQ(push(20), QueuePush::kPushed);
    EXPECT_FALSE(evicted.has_value());

    // Full: a more valuable arrival displaces the minimum...
    EXPECT_EQ(push(30), QueuePush::kPushedEvicted);
    EXPECT_EQ(evicted, std::optional<int>(10));

    // ...an equal-or-less valuable one is rejected, queue untouched.
    EXPECT_EQ(push(20), QueuePush::kRejected);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueue, RejectedPushLeavesCallerItemIntact)
{
    // The serving layer answers a rejected request through the very
    // object it tried to push — rejection must not consume it.
    const auto less = [](const std::string &a, const std::string &b) {
        return a < b;
    };
    BoundedQueue<std::string> queue(1);
    std::optional<std::string> evicted;
    std::string keeper = "zz-queued";
    ASSERT_EQ(queue.pushEvictingWithin(std::move(keeper), less, kAnyEntry,
                                       false, evicted),
              QueuePush::kPushed);
    std::string rejected = "aa-rejected";
    ASSERT_EQ(queue.pushEvictingWithin(std::move(rejected), less,
                                       kAnyEntry, false, evicted),
              QueuePush::kRejected);
    EXPECT_EQ(rejected, "aa-rejected");
}

TEST(BoundedQueue, CloseDrainsThenStopsConsumers)
{
    BoundedQueue<int> queue(4);
    ASSERT_TRUE(queue.tryPush(7));
    queue.close();
    EXPECT_FALSE(queue.tryPush(8));
    std::optional<int> evicted;
    EXPECT_EQ(queue.pushEvictingWithin(9, std::less<int>(), kAnyEntry,
                                       false, evicted),
              QueuePush::kClosed);
    // Already-queued work stays poppable; then consumers find it empty.
    EXPECT_EQ(queue.tryPop(), std::optional<int>(7));
    EXPECT_EQ(queue.tryPop(), std::nullopt);
}

namespace
{
/** Tenant-tagged queue entry for the group-scoped eviction tests. */
struct GroupItem
{
    int group = 0;
    int value = 0; ///< retention worth: smaller is evicted first
    uint64_t seq = 0;
};
} // namespace

TEST(BoundedQueue, PushEvictingWithinNeverEvictsAcrossGroups)
{
    // A full queue holding only group-0 work must reject a group-1
    // arrival outright — no cross-group victim, however cheap.
    BoundedQueue<GroupItem> queue(2);
    const auto less = [](const GroupItem &a, const GroupItem &b) {
        return a.value < b.value;
    };
    std::optional<GroupItem> evicted;
    ASSERT_EQ(queue.pushEvictingWithin(
                  GroupItem{0, 1, 0}, less,
                  [](const GroupItem &it) { return it.group == 0; },
                  false, evicted),
              QueuePush::kPushed);
    ASSERT_EQ(queue.pushEvictingWithin(
                  GroupItem{0, 2, 1}, less,
                  [](const GroupItem &it) { return it.group == 0; },
                  false, evicted),
              QueuePush::kPushed);
    // Queue is globally full; the group-1 push may only consider
    // group-1 victims, of which there are none.
    EXPECT_EQ(queue.pushEvictingWithin(
                  GroupItem{1, 100, 2}, less,
                  [](const GroupItem &it) { return it.group == 1; },
                  false, evicted),
              QueuePush::kRejected);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(queue.size(), 2u);
    // A group-0 arrival still displaces the group-0 minimum.
    EXPECT_EQ(queue.pushEvictingWithin(
                  GroupItem{0, 50, 3}, less,
                  [](const GroupItem &it) { return it.group == 0; },
                  false, evicted),
              QueuePush::kPushedEvicted);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->group, 0);
    EXPECT_EQ(evicted->value, 1);
}

TEST(BoundedQueue, PushEvictingWithinHonorsGroupBound)
{
    // at_group_bound forces the evict-or-reject path even when the
    // shared queue has global headroom — the per-tenant sub-queue
    // bound, not global capacity, is the binding constraint.
    BoundedQueue<GroupItem> queue(8);
    const auto less = [](const GroupItem &a, const GroupItem &b) {
        return a.value < b.value;
    };
    const auto in_group0 = [](const GroupItem &it) {
        return it.group == 0;
    };
    std::optional<GroupItem> evicted;
    ASSERT_EQ(queue.pushEvictingWithin(GroupItem{0, 5, 0}, less,
                                       in_group0, false, evicted),
              QueuePush::kPushed);
    // Group bound reached: an equal-worth arrival is rejected...
    EXPECT_EQ(queue.pushEvictingWithin(GroupItem{0, 5, 1}, less,
                                       in_group0, true, evicted),
              QueuePush::kRejected);
    EXPECT_EQ(queue.size(), 1u);
    // ...a more valuable one swaps in place (size unchanged).
    EXPECT_EQ(queue.pushEvictingWithin(GroupItem{0, 9, 2}, less,
                                       in_group0, true, evicted),
              QueuePush::kPushedEvicted);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->value, 5);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(BoundedQueue, TryPopWhereIsFifoWithinTheMatchingSubset)
{
    BoundedQueue<GroupItem> queue(8);
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(queue.tryPush(GroupItem{
            i % 2, i, static_cast<uint64_t>(i)}));
    // Popping group 1 repeatedly yields its entries oldest-first,
    // leaving group 0 untouched and in order.
    const auto group1 = [](const GroupItem &it) {
        return it.group == 1;
    };
    EXPECT_EQ(queue.tryPopWhere(group1)->seq, 1u);
    EXPECT_EQ(queue.tryPopWhere(group1)->seq, 3u);
    EXPECT_EQ(queue.tryPopWhere(group1)->seq, 5u);
    EXPECT_EQ(queue.tryPopWhere(group1), std::nullopt);
    EXPECT_EQ(queue.tryPop()->seq, 0u);
    EXPECT_EQ(queue.tryPop()->seq, 2u);
    EXPECT_EQ(queue.tryPop()->seq, 4u);
}

TEST(BoundedQueue, PushEvictingWithinPropertyNoCrossGroupEviction)
{
    // Randomized property check: across thousands of group-scoped
    // pushes with per-group bounds, (a) an eviction victim always
    // belongs to the pusher's group, (b) no group ever exceeds its
    // bound, (c) global capacity holds, (d) accounting identity
    // pushed - evicted - popped == queued per group.
    Rng rng(0xfeedu);
    constexpr size_t kCapacity = 12;
    constexpr int kGroups = 3;
    const size_t bound[kGroups] = {3, 5, 12};
    BoundedQueue<GroupItem> queue(kCapacity);
    size_t queued[kGroups] = {};
    uint64_t pushed[kGroups] = {}, evictions[kGroups] = {},
             popped[kGroups] = {};
    const auto less = [](const GroupItem &a, const GroupItem &b) {
        return a.value < b.value;
    };
    for (uint64_t step = 0; step < 4000; ++step) {
        const int group =
            static_cast<int>(rng.uniformInt(0, kGroups - 1));
        if (rng.uniformInt(0, 3) == 0) { // occasional group-aware pop
            const auto match = [group](const GroupItem &it) {
                return it.group == group;
            };
            if (const auto item = queue.tryPopWhere(match)) {
                ASSERT_EQ(item->group, group);
                --queued[group];
                ++popped[group];
            }
            continue;
        }
        GroupItem item{
            group, static_cast<int>(rng.uniformInt(0, 999)), step};
        std::optional<GroupItem> evicted;
        const auto eligible = [group](const GroupItem &it) {
            return it.group == group;
        };
        const bool at_bound = queued[group] >= bound[group];
        const QueuePush outcome = queue.pushEvictingWithin(
            std::move(item), less, eligible, at_bound, evicted);
        if (outcome == QueuePush::kPushed) {
            ++queued[group];
            ++pushed[group];
        } else if (outcome == QueuePush::kPushedEvicted) {
            ASSERT_TRUE(evicted.has_value());
            ASSERT_EQ(evicted->group, group)
                << "eviction crossed a group boundary at step "
                << step;
            ++pushed[group];
            ++evictions[group];
        }
        size_t total = 0;
        for (int g = 0; g < kGroups; ++g) {
            ASSERT_LE(queued[g], bound[g]) << "group " << g
                                           << " exceeded its bound";
            total += queued[g];
        }
        ASSERT_LE(total, kCapacity);
        ASSERT_EQ(queue.size(), total);
    }
    for (int g = 0; g < kGroups; ++g)
        EXPECT_EQ(pushed[g] - evictions[g] - popped[g], queued[g])
            << "accounting identity broke for group " << g;
}

TEST(VirtualClock, AdvancesOnlyWhenDriven)
{
    VirtualClock clock(100);
    EXPECT_EQ(clock.nowNs(), 100u);
    EXPECT_EQ(clock.nowNs(), 100u) << "time must not move on its own";
    EXPECT_EQ(clock.advanceNs(50), 150u);
    clock.advanceToNs(200);
    EXPECT_EQ(clock.nowNs(), 200u);
    clock.advanceToNs(120); // behind: monotonic no-op
    EXPECT_EQ(clock.nowNs(), 200u);
}

TEST(MonotonicClockTest, NeverDecreases)
{
    const Clock &clock = MonotonicClock::instance();
    uint64_t previous = clock.nowNs();
    for (int i = 0; i < 1000; ++i) {
        const uint64_t now = clock.nowNs();
        ASSERT_GE(now, previous);
        previous = now;
    }
}

TEST(Cancel, DefaultTokenNeverCancels)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_FALSE(token.poll());
    EXPECT_TRUE(token.status().ok());
    EXPECT_EQ(token.pollCount(), 0u);
}

TEST(Cancel, FirstCancellationWinsAndCarriesReason)
{
    CancelSource source;
    const CancelToken token = source.token();
    EXPECT_FALSE(token.poll());
    source.cancel(Status::cancelled("first"));
    source.cancel(Status::unavailable("second")); // no-op
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(token.poll());
    EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(token.status().message(), "first");
}

TEST(Cancel, DeadlineTripsOnFirstPollAtOrAfterIt)
{
    VirtualClock clock(0);
    CancelSource source;
    source.setDeadline(100, clock);
    const CancelToken token = source.token();
    EXPECT_FALSE(token.poll());
    clock.advanceToNs(99);
    EXPECT_FALSE(token.poll());
    clock.advanceToNs(100);
    EXPECT_TRUE(token.poll());
    EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(Cancel, PollBumpsHeartbeatAndCount)
{
    std::atomic<uint64_t> heartbeat{0};
    CancelSource source;
    source.setProgressCounter(&heartbeat);
    const CancelToken token = source.token();
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(token.poll());
    EXPECT_EQ(heartbeat.load(), 5u);
    EXPECT_EQ(token.pollCount(), 5u);
    // cancelled() is the cheap flag check: no heartbeat side effect.
    (void)token.cancelled();
    EXPECT_EQ(heartbeat.load(), 5u);
}

TEST(Cancel, PollHookSeesPollIndexAndMayCancel)
{
    CancelSource source;
    std::vector<uint64_t> seen;
    source.setPollHook([&](uint64_t poll) {
        seen.push_back(poll);
        if (poll == 2)
            source.cancel(Status::cancelled("hook"));
    });
    const CancelToken token = source.token();
    EXPECT_FALSE(token.poll());
    EXPECT_FALSE(token.poll());
    EXPECT_TRUE(token.poll());
    EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1, 2}));
}

TEST(ParallelFor, CoversRangeWithDisjointChunks)
{
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
        for (const uint64_t count : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
            std::vector<std::atomic<int>> hits(count);
            parallelFor(count, threads, [&](uint64_t b, uint64_t e) {
                ASSERT_LT(b, e);
                for (uint64_t i = b; i < e; ++i)
                    ++hits[i];
            });
            for (uint64_t i = 0; i < count; ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << "threads=" << threads << " count=" << count
                    << " i=" << i;
        }
    }
}

} // namespace
} // namespace mixgemm
