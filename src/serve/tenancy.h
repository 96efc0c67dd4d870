/**
 * @file
 * Multi-tenant isolation plane for the inference server.
 *
 * A tenant used to be a telemetry label; this module makes it a
 * scheduling boundary. Three mechanisms compose:
 *
 *  - **Admission quotas** (TenantRegistry): each tenant carries a
 *    token-bucket admission rate (rate_per_s + burst), a bulkhead on
 *    outstanding work (max_in_flight, queued + executing), a priority
 *    ceiling that clamps what the tenant may claim, and an accuracy
 *    floor (tier_floor) below which degradation may never push it.
 *    Quota rejections are kResourceExhausted with a machine-readable
 *    reason prefix ("tenant_rate:", "tenant_bulkhead:", ...).
 *
 *  - **Fair-share dispatch** (TenantScheduler): per-tenant bounded
 *    sub-queues over one shared BoundedQueue, drained by deficit
 *    weighted round robin. Each tenant's lane accrues
 *    quantum * weight deficit when its turn starts and spends one
 *    unit per dispatched request, so under saturation tenants receive
 *    service in proportion to their weights (a 10:1 weight split
 *    yields a 10:1 dispatch split). Overload sheds strictly *within*
 *    the submitting tenant's lane (BoundedQueue::pushEvictingWithin):
 *    a flooding tenant can only displace its own queued work.
 *
 *  - **Brownout control** (server-side, driven by the policies here):
 *    when the queue passes the high watermark, tenants holding more
 *    than their weight-fair share of it take extra steps down the
 *    precision ladder *before* in-quota tenants degrade, clamped by
 *    each tenant's accuracy floor.
 *
 * Everything is deterministic by construction: tenant ids are assigned
 * in configuration order then first-seen order, the scheduler state is
 * integer arithmetic, and token buckets refill from the server Clock —
 * under a VirtualClock the whole plane replays byte-identically.
 * TenancyOptions defaults to disabled, in which case the server
 * queues every request in one FIFO lane of the same scheduler and logs
 * no dispatch lines.
 */

#ifndef MIXGEMM_SERVE_TENANCY_H
#define MIXGEMM_SERVE_TENANCY_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/status.h"

namespace mixgemm
{

/** Per-tenant isolation policy. Defaults are permissive (no quota);
 * every limit is opt-in so an unconfigured tenant behaves like the
 * pre-tenancy server, just fairly interleaved with its peers. */
struct TenantPolicy
{
    /** DWRR queue-share weight (>= 1): under saturation the tenant
     * receives service proportional to weight / sum(active weights). */
    uint32_t weight = 1;
    /** Token-bucket admission rate (requests/s); 0 = unlimited. */
    double rate_per_s = 0.0;
    /** Bucket capacity (burst allowance); the bucket starts full. */
    double burst = 8.0;
    /** Per-tenant sub-queue bound; 0 = the server's queue capacity. */
    size_t max_queue = 0;
    /** Bulkhead: max outstanding (queued + executing) requests;
     * 0 = unlimited. Exceeding it rejects at admission. */
    uint32_t max_in_flight = 0;
    /** Requests above this priority are clamped to it at submission;
     * INT_MAX = no ceiling. */
    int priority_ceiling = std::numeric_limits<int>::max();
    /** Accuracy floor: deepest ladder rung degradation or brownout may
     * deliver to this tenant; -1 = no floor (full ladder). */
    int tier_floor = -1;
};

/** Load-aware per-tenant brownout. Over-quota tenants (holding more
 * than over_share_factor times their weight-fair share of the queue)
 * take up to max_steps extra degradation levels while the queue sits
 * above high_watermark, and recover when it drains below low_watermark
 * or they fall back inside their share. */
struct BrownoutPolicy
{
    bool enabled = true;
    double high_watermark = 0.75; ///< queue fill that arms brownout
    double low_watermark = 0.25;  ///< queue fill that clears it
    /** A tenant is over quota when its queued share exceeds
     * over_share_factor * (weight / sum of active weights). */
    double over_share_factor = 1.25;
    unsigned max_steps = 2;    ///< extra levels on top of the global one
    uint64_t min_dwell_ns = 0; ///< per-tenant hysteresis between steps
};

/** Tenancy plane configuration. Defaults to *disabled*: the server
 * then takes the identical scheduling path it took before this plane
 * existed (single global queue, no quotas). */
struct TenancyOptions
{
    bool enabled = false;
    TenantPolicy default_policy;          ///< unconfigured tenants
    std::map<std::string, TenantPolicy> tenants; ///< named overrides
    BrownoutPolicy brownout;
    uint64_t quantum = 1; ///< DWRR deficit grains per weight unit
    /** Hard cap on distinct tenant names the registry will track;
     * submissions from tenants past it are rejected
     * (kResourceExhausted "tenant_limit:") and accounted under the
     * synthetic "!overflow" tenant so hostile name churn cannot grow
     * server state without bound. */
    uint32_t max_tenants = 256;
};

/** Per-tenant terminal + quota accounting. For every tenant the
 * identity
 *
 *   submitted == completed_ok + shed + rejected_full + rejected_invalid
 *              + rejected_closed + rejected_rate + rejected_bulkhead
 *              + rejected_limit + rejected_draining + expired_submit
 *              + deadline_exceeded + cancelled + failed
 *
 * holds once the server has drained (expired_queue is an informational
 * subcount of deadline_exceeded; degraded/retries/brownout_* overlap
 * the terminal buckets; the trailing gauges are snapshot-time). */
struct TenantStats
{
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t completed_ok = 0;
    uint64_t shed = 0;
    uint64_t rejected_full = 0;
    uint64_t rejected_invalid = 0;
    uint64_t rejected_closed = 0;
    uint64_t rejected_rate = 0;     ///< token bucket empty
    uint64_t rejected_bulkhead = 0; ///< max_in_flight exceeded
    uint64_t rejected_limit = 0;    ///< tenant table full
    uint64_t rejected_draining = 0; ///< submitted after beginDrain()
    uint64_t expired_submit = 0;
    uint64_t expired_queue = 0;
    uint64_t deadline_exceeded = 0;
    uint64_t cancelled = 0;
    uint64_t failed = 0;
    uint64_t degraded = 0;
    uint64_t retries = 0;
    uint64_t brownout_steps = 0;
    uint64_t brownout_clears = 0;
    uint64_t priority_clamps = 0;
    uint64_t drain_cancelled = 0; ///< queued work cancelled by drain

    // Snapshot-time gauges (filled by InferenceServer::stats()).
    unsigned brownout_level = 0;
    uint64_t queue_depth = 0;
    uint64_t in_flight = 0; ///< outstanding (queued + executing)
    uint64_t deficit = 0;   ///< DWRR deficit at snapshot time
    double tokens = 0.0;    ///< rate-bucket level at snapshot time
    uint32_t weight = 1;
};

/** Runtime state of one registered tenant (externally synchronized —
 * the server accesses it under its admission mutex). */
struct TenantState
{
    std::string name;
    TenantPolicy policy;
    double tokens = 0.0;        ///< admission token bucket level
    uint64_t bucket_ns = 0;     ///< last refill time
    bool bucket_armed = false;  ///< first refill pins the epoch
    uint32_t outstanding = 0;   ///< queued + executing (bulkhead gauge)
    unsigned brownout_level = 0;
    uint64_t last_brownout_ns = 0;
};

/**
 * Name -> policy/state table with deterministic id assignment:
 * configured tenants get ids 0..n-1 in map (name) order at
 * construction, unknown tenants get the next id at first submission.
 * Ids are dense and stable for the registry's lifetime, which is what
 * lets the scheduler index lanes by id. Externally synchronized (the
 * server holds its admission mutex around every call).
 */
class TenantRegistry
{
  public:
    explicit TenantRegistry(TenancyOptions options);

    /** Id for @p name, registering it on first sight. nullopt when the
     * tenant table is full and @p name is unknown (account the request
     * under kOverflowName and reject it). */
    std::optional<uint32_t> resolve(const std::string &name);

    /** Id for @p name without registering; nullopt when unknown. */
    std::optional<uint32_t> findId(const std::string &name) const;

    TenantState &state(uint32_t id) { return states_[id]; }
    const TenantState &state(uint32_t id) const { return states_[id]; }
    size_t count() const { return states_.size(); }

    /** Refill @p state's token bucket at @p now_ns and consume one
     * token; false when the bucket is empty (rate-reject). A zero-rate
     * policy always admits. */
    bool tryAcquireToken(TenantState &state, uint64_t now_ns);

    const TenancyOptions &options() const { return options_; }

    /** Stats key for submissions rejected by the tenant-table cap. */
    static constexpr const char *kOverflowName = "!overflow";

  private:
    TenancyOptions options_;
    std::map<std::string, uint32_t> ids_;
    std::deque<TenantState> states_; ///< deque: stable references
};

/**
 * Deficit-weighted-round-robin scheduler over per-tenant bounded
 * sub-queues. One shared BoundedQueue holds the items (so global
 * capacity still bounds total queued work); per-tenant lane counters
 * bound each tenant's slice and carry the DWRR deficit state; one
 * mutex guards both. T must expose a `tenant_id` member. Thread-safe;
 * push and pop may race freely (workers popWait while submitters
 * push). The server's tenancy-off mode is the one-lane case, which
 * pops in FIFO order.
 */
template <typename T>
class TenantScheduler
{
  public:
    /** Snapshot of one tenant lane (brownout controller input). */
    struct LaneView
    {
        uint32_t weight = 1;
        size_t bound = 0;
        size_t queued = 0;
        uint64_t deficit = 0;
    };

    /** A dispatched item plus the DWRR state it was popped under. */
    struct Popped
    {
        T item;
        uint32_t tenant = 0;
        uint64_t deficit = 0; ///< lane deficit *after* this dispatch
    };

    TenantScheduler(size_t capacity, uint64_t quantum)
        : queue_(capacity), quantum_(quantum == 0 ? 1 : quantum)
    {
    }

    /** Create (or update the policy bits of) tenant @p tenant's lane.
     * Must be called before the first push for that tenant. */
    void ensureLane(uint32_t tenant, uint32_t weight, size_t bound)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (lanes_.size() <= tenant)
            lanes_.resize(tenant + 1);
        lanes_[tenant].weight = weight == 0 ? 1 : weight;
        lanes_[tenant].bound = bound;
    }

    /**
     * Admit @p item into its tenant's lane. Overload evicts strictly
     * within that lane (pushEvictingWithin): when the shared queue is
     * full or the lane is at its own bound, the least-valuable entry
     * *of the same tenant* is displaced iff it is worth less than
     * @p item; otherwise kRejected. Lane accounting updates under the
     * scheduler lock, so counts and queue contents stay consistent.
     */
    template <typename Less>
    QueuePush push(uint32_t tenant, T &&item, Less retain_less,
                   std::optional<T> &evicted)
    {
        QueuePush outcome;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            Lane &lane = lanes_[tenant];
            const bool at_bound =
                lane.bound != 0 && lane.queued >= lane.bound;
            outcome = queue_.pushEvictingWithin(
                std::move(item), retain_less,
                [tenant](const T &entry) {
                    return entry.tenant_id == tenant;
                },
                at_bound, evicted);
            if (outcome == QueuePush::kPushed) {
                ++lane.queued;
                ++total_;
            }
            // kPushedEvicted swaps one same-lane entry for another:
            // lane and total counts are unchanged.
        }
        if (outcome == QueuePush::kPushed ||
            outcome == QueuePush::kPushedEvicted)
            cv_.notify_one();
        return outcome;
    }

    /** DWRR pop without blocking; nullopt when every lane is empty. */
    std::optional<Popped> tryPop()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return popLocked();
    }

    /** DWRR pop, blocking until work arrives or the scheduler is
     * closed *and* drained; nullopt only on that closed-and-empty
     * exit. */
    std::optional<Popped> popWait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return closed_ || total_ > 0; });
        return popLocked();
    }

    /** Close to producers; queued items stay poppable. */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
            queue_.close();
        }
        cv_.notify_all();
    }

    size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return total_;
    }

    size_t capacity() const { return queue_.capacity(); }

    size_t laneDepth(uint32_t tenant) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return tenant < lanes_.size() ? lanes_[tenant].queued : 0;
    }

    uint64_t laneDeficit(uint32_t tenant) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return tenant < lanes_.size() ? lanes_[tenant].deficit : 0;
    }

    /** Consistent snapshot of every lane, indexed by tenant id. */
    std::vector<LaneView> lanes() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<LaneView> views;
        views.reserve(lanes_.size());
        for (const Lane &lane : lanes_)
            views.push_back(
                {lane.weight, lane.bound, lane.queued, lane.deficit});
        return views;
    }

  private:
    struct Lane
    {
        uint32_t weight = 1;
        size_t bound = 0;
        size_t queued = 0;
        uint64_t deficit = 0;
    };

    std::optional<Popped> popLocked()
    {
        if (total_ == 0)
            return std::nullopt;
        // Classic DWRR with unit request cost: a lane starting its
        // turn accrues quantum * weight deficit, spends one per
        // dispatched request, and yields the cursor when its deficit
        // or its queue runs out. An emptied lane forfeits leftover
        // deficit (no credit hoarding while idle).
        for (size_t scanned = 0; scanned <= lanes_.size(); ++scanned) {
            Lane &lane = lanes_[cursor_];
            if (lane.queued == 0) {
                lane.deficit = 0;
                advanceCursor();
                continue;
            }
            if (lane.deficit == 0)
                lane.deficit = quantum_ * lane.weight;
            const uint32_t tenant = static_cast<uint32_t>(cursor_);
            std::optional<T> item = queue_.tryPopWhere(
                [tenant](const T &entry) {
                    return entry.tenant_id == tenant;
                });
            if (!item) {
                // Lane counters and queue contents are updated under
                // the same lock; a counted entry is always present.
                lane.queued = 0;
                lane.deficit = 0;
                advanceCursor();
                continue;
            }
            --lane.queued;
            --total_;
            --lane.deficit;
            Popped popped{std::move(*item), tenant, lane.deficit};
            if (lane.queued == 0) {
                lane.deficit = 0;
                advanceCursor();
            } else if (lane.deficit == 0) {
                advanceCursor();
            }
            return popped;
        }
        return std::nullopt;
    }

    void advanceCursor()
    {
        cursor_ = lanes_.empty() ? 0 : (cursor_ + 1) % lanes_.size();
    }

    BoundedQueue<T> queue_;
    const uint64_t quantum_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Lane> lanes_;
    size_t cursor_ = 0;
    size_t total_ = 0;
    bool closed_ = false;
};

/**
 * Parse a tenant-policy JSON document (the CLI's --tenant-policy):
 *
 *   {
 *     "default":  {"weight":1,"rate_per_s":0,"burst":8,"max_queue":0,
 *                  "max_in_flight":0,"priority_ceiling":-1,
 *                  "tier_floor":-1},
 *     "tenants":  {"victim":{"weight":10},
 *                  "aggressor":{"weight":1,"rate_per_s":200}},
 *     "brownout": {"enabled":true,"high_watermark":0.75,
 *                  "low_watermark":0.25,"over_share_factor":1.25,
 *                  "max_steps":2,"min_dwell_ns":0},
 *     "quantum": 1,
 *     "max_tenants": 256
 *   }
 *
 * Every field is optional; absent fields keep their defaults. A
 * priority_ceiling of -1 means "no ceiling". Parsing a document always
 * returns an *enabled* TenancyOptions. Errors (malformed JSON, wrong
 * kinds, out-of-range values) come back as a Status.
 */
Expected<TenancyOptions> parseTenancyJson(const std::string &text);

/** A named tenant scenario for the soak harness: a tenancy
 * configuration plus the arrival mix that stresses it. */
struct TenantScenario
{
    std::string name;
    TenancyOptions options;
    /** Per-tenant arrival weights; each soak arrival draws its tenant
     * from this distribution (one extra rng draw per arrival). */
    std::vector<std::pair<std::string, double>> arrival_mix;
};

/**
 * Built-in tenant scenarios:
 *   noisy-neighbor  a weight-10 "victim" with a modest arrival share
 *                   vs a weight-1 "aggressor" flooding the queue; DWRR
 *                   protects the victim's goodput and brownout
 *                   degrades the aggressor first
 *   quota-storm     four equal tenants, each rate- and bulkhead-
 *                   limited, offered far more load than their buckets
 *                   admit — mass tenant_rate rejections while in-quota
 *                   work completes
 */
Expected<TenantScenario> tenantScenarioByName(const std::string &name);

/** Names accepted by tenantScenarioByName, comma-separated. */
std::string tenantScenarioNames();

} // namespace mixgemm

#endif // MIXGEMM_SERVE_TENANCY_H
