#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>

#include "common/logging.h"
#include "common/threadname.h"
#include "serve/chaos.h"
#include "serve/ladder.h"
#include "store/store.h"
#include "trace/tracer.h"

namespace mixgemm
{

/**
 * Where a terminal outcome is counted: the matching ServerStats,
 * PriorityClassStats and TenantStats fields, bumped together so the
 * three accounting identities cannot drift apart. A null member skips
 * that level.
 */
struct TerminalBucket
{
    uint64_t ServerStats::*server;
    uint64_t PriorityClassStats::*cls;
    uint64_t TenantStats::*tenant;
};

namespace
{

using S = ServerStats;
using C = PriorityClassStats;
using T = TenantStats;
constexpr TerminalBucket kSubmitted{&S::submitted, &C::submitted,
                                    &T::submitted};
constexpr TerminalBucket kRejectLimit{&S::rejected_tenant_limit,
                                      &C::rejected_quota,
                                      &T::rejected_limit};
constexpr TerminalBucket kRejectDraining{
    &S::rejected_draining, &C::rejected_draining, &T::rejected_draining};
constexpr TerminalBucket kRejectInvalid{
    &S::rejected_invalid, &C::rejected_invalid, &T::rejected_invalid};
constexpr TerminalBucket kExpireSubmit{
    &S::expired_submit, &C::expired_submit, &T::expired_submit};
constexpr TerminalBucket kRejectRate{&S::rejected_rate, &C::rejected_quota,
                                     &T::rejected_rate};
constexpr TerminalBucket kRejectBulkhead{
    &S::rejected_bulkhead, &C::rejected_quota, &T::rejected_bulkhead};
constexpr TerminalBucket kRejectFull{&S::rejected_full, &C::rejected_full,
                                     &T::rejected_full};
constexpr TerminalBucket kRejectClosed{
    &S::rejected_closed, &C::rejected_closed, &T::rejected_closed};
constexpr TerminalBucket kShed{&S::shed, &C::shed, &T::shed};
constexpr TerminalBucket kExpireQueue{&S::expired_queue, &C::expired_queue,
                                      &T::expired_queue};
constexpr TerminalBucket kCompletedOk{&S::completed_ok, &C::completed_ok,
                                      &T::completed_ok};
constexpr TerminalBucket kDeadline{
    &S::deadline_exceeded, &C::deadline_exceeded, &T::deadline_exceeded};
constexpr TerminalBucket kCancelled{&S::cancelled, &C::cancelled,
                                    &T::cancelled};
constexpr TerminalBucket kFailed{&S::failed, &C::failed, &T::failed};
constexpr TerminalBucket kDegraded{nullptr, &C::degraded, &T::degraded};
constexpr TerminalBucket kDrainCancelled{&S::drain_cancelled, nullptr,
                                         &T::drain_cancelled};

void
count(ServerStats &stats, const TerminalBucket &bucket, int priority,
      const std::string &tenant)
{
    if (bucket.server)
        ++(stats.*bucket.server);
    if (bucket.cls)
        ++(stats.by_priority[priority].*bucket.cls);
    if (bucket.tenant)
        ++(stats.by_tenant[tenant].*bucket.tenant);
}

/** now - then, or 0 when a racing stamp made @p then the later one. */
uint64_t
elapsedNs(uint64_t now, uint64_t then)
{
    return now > then ? now - then : 0;
}

const std::string kOverflowTenant = TenantRegistry::kOverflowName;

} // namespace

/** A registered graph: its prepared ladder (rung state guarded by
 * rung_mutex_, swapped as one unit by reloadGraph()) plus the
 * admission-side state below. */
struct InferenceServer::RegisteredGraph : PreparedLadder
{
    std::string name;
    std::vector<size_t> input_shape; ///< immutable after registration

    // Guarded by mutex_ (admission-side state, not rung state).
    /// Per-rung circuit breakers; grows on register/reload, never
    /// shrinks, so in-flight requests keep a stable breaker index.
    std::vector<std::unique_ptr<CircuitBreaker>> breakers;
    /// Bumped by every reloadGraph(); reload safety for requests
    /// admitted against the previous ladder.
    uint64_t generation = 0;
};

/** What one dispatched request executes with, threaded through the
 * attempt loop, the chaos plan and the hedge race. */
struct InferenceServer::Execution
{
    Pending &item;
    const RungRef &rung;
    WorkerSlot &slot;
    MixGemmBackend &backend;
    CancelSource &source;
    const CancelToken &token;
};

InferenceServer::InferenceServer(ServerOptions options)
    : options_(std::move(options)),
      clock_(options_.virtual_clock
                 ? static_cast<const Clock *>(options_.virtual_clock)
                 : (options_.clock ? options_.clock
                                   : &MonotonicClock::instance())),
      sched_(options_.queue_capacity,
             options_.tenancy.enabled ? options_.tenancy.quantum : 1),
      retry_budget_(options_.retry_budget)
{
    if (options_.virtual_clock && options_.workers != 0)
        fatal("InferenceServer: virtual-time mode requires workers = 0 "
              "(pump mode); threaded workers would race the scripted "
              "clock");
    // Pin the chaos window's origin to server start so a windowed
    // scenario measures run time, not absolute wall nanoseconds.
    if (options_.chaos)
        options_.chaos->armEpoch(clock_->nowNs());
    if (options_.tenancy.enabled) {
        tenants_ = std::make_unique<TenantRegistry>(options_.tenancy);
        // Configured tenants get their lanes up front, in registry id
        // order, so lane indices never depend on traffic order.
        for (uint32_t id = 0; id < tenants_->count(); ++id) {
            const TenantState &state = tenants_->state(id);
            sched_.ensureLane(id, state.policy.weight,
                              state.policy.max_queue);
        }
        stats_.tenant_count = tenants_->count();
    } else {
        sched_.ensureLane(0, 1, 0);
    }
    if (options_.workers == 0) {
        pump_slot_ = std::make_unique<WorkerSlot>();
        return;
    }
    slots_.reserve(options_.workers);
    for (unsigned w = 0; w < options_.workers; ++w)
        slots_.push_back(std::make_unique<WorkerSlot>());
    workers_.reserve(options_.workers);
    for (unsigned w = 0; w < options_.workers; ++w)
        workers_.emplace_back([this, w] { workerMain(w); });
    if (options_.watchdog_timeout_ns > 0 && options_.watchdog_poll_ns > 0)
        watchdog_ = std::thread([this] { watchdogMain(); });
}

InferenceServer::~InferenceServer()
{
    shutdown();
}

std::unique_ptr<MixGemmBackend>
InferenceServer::makeBackend() const
{
    auto backend = std::make_unique<MixGemmBackend>(
        options_.backend_threads, options_.kernel_mode);
    backend->setFaultPolicy(options_.fault_policy);
    backend->setAbftMaxRetries(options_.abft_max_retries);
    backend->setFaultInjector(options_.fault_injector);
    backend->attachTraceSession(options_.session);
    return backend;
}

// ---------------------------------------------------------------------
// Ladders: registration, hot reload, lazy rungs
// ---------------------------------------------------------------------

Expected<uint64_t>
InferenceServer::registerGraph(std::string name,
                               std::vector<TierSpec> ladder,
                               std::vector<size_t> input_shape)
{
    Expected<PreparedLadder> prepared =
        prepareLadder(strCat("registerGraph('", name, "')"),
                      std::move(ladder), input_shape, options_.weight_store);
    if (!prepared.ok())
        return prepared.status();
    auto graph = std::make_unique<RegisteredGraph>();
    static_cast<PreparedLadder &>(*graph) = std::move(*prepared);
    graph->name = std::move(name);
    graph->input_shape = std::move(input_shape);

    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t id = graphs_.size();
    const unsigned deepest =
        static_cast<unsigned>(graph->ladder.size()) - 1;
    graphs_.push_back(std::move(graph));
    max_level_ = std::max(max_level_, deepest);
    stats_.completed_by_tier.resize(max_level_ + 1, 0);
    return id;
}

Expected<uint64_t>
InferenceServer::reloadGraph(uint64_t id, std::vector<TierSpec> ladder)
{
    RegisteredGraph *graph = nullptr;
    std::vector<size_t> input_shape;
    std::string name;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (id >= graphs_.size())
            return Status::notFound(
                strCat("reloadGraph: unknown graph id ", id));
        graph = graphs_[id].get();
        input_shape = graph->input_shape; // immutable after register
        name = graph->name;
    }

    // Build and dry-run outside every server lock: building and packing
    // the new ladder must not stall admission or execution of in-flight
    // traffic.
    Expected<PreparedLadder> prepared =
        prepareLadder(strCat("reloadGraph('", name, "')"),
                      std::move(ladder), input_shape, options_.weight_store);
    if (!prepared.ok())
        return prepared.status();
    const size_t rung_count = prepared->ladder.size();

    // Atomic flip: the ladder is read under either lock, so the swap
    // must exclude both readers at once. Both locks nest in the one
    // fixed order (rung_mutex_ then mutex_) resolveRung also takes, so
    // they cannot deadlock. In-flight requests keep the old rungs alive
    // through their shared_ptrs; queued requests clamp their tier at
    // execution.
    const uint64_t now = clock_->nowNs();
    std::lock_guard<std::mutex> rung_lock(rung_mutex_);
    std::lock_guard<std::mutex> lock(mutex_);
    // Retire the old ladder's lazy-resident pool accounting; the new
    // eager rungs are not pool-tracked (same as registration).
    for (size_t t = 0; t < graph->ladder.size(); ++t) {
        if (graph->ladder[t].lazy() && graph->rungs[t]) {
            lazy_resident_bytes_ -= graph->rung_bytes[t];
            --lazy_resident_count_;
        }
    }
    static_cast<PreparedLadder &>(*graph) = std::move(*prepared);
    stats_.lazy_resident_bytes = lazy_resident_bytes_;
    stats_.lazy_rungs_resident = lazy_resident_count_;

    const uint64_t generation = ++graph->generation;
    const unsigned deepest = static_cast<unsigned>(rung_count) - 1;
    max_level_ = std::max(max_level_, deepest);
    stats_.completed_by_tier.resize(max_level_ + 1, 0);
    ++stats_.graph_reloads;
    logLocked(strCat("t=", now, " reload graph=", name,
                     " generation=", generation, " rungs=", rung_count));
    return generation;
}

InferenceServer::RungRef
InferenceServer::resolveRung(RegisteredGraph &graph, unsigned tier,
                             uint64_t now)
{
    std::lock_guard<std::mutex> rung_lock(rung_mutex_);
    // Re-clamp: a reload may have swapped in a shallower ladder since
    // the caller snapshotted its tier.
    tier = std::min<unsigned>(tier,
                              static_cast<unsigned>(graph.ladder.size()) - 1);
    std::shared_ptr<const QuantizedGraph> &slot = graph.rungs[tier];
    graph.rung_last_use[tier] = ++rung_use_tick_;
    if (slot)
        return {slot, graph.rung_packs[tier]};

    // First request at this precision (or a re-fault after eviction):
    // build the rung, without mutex_ so admission never waits on it.
    // The builder is deterministic, so with a content-addressed store
    // the rebuild re-derives the same key and re-adopts the same
    // artifact — results are bitwise identical across evict/refault
    // cycles.
    slot = std::make_shared<const QuantizedGraph>(graph.ladder[tier].build());
    uint64_t packed_bytes = 0;
    graph.rung_packs[tier] = loadPackedIndex(
        options_.weight_store, *slot,
        strCat("materialize '", graph.name, "' tier ", tier), &packed_bytes);
    graph.rung_bytes[tier] = graphWeightBytes(*slot) + packed_bytes;
    lazy_resident_bytes_ += graph.rung_bytes[tier];
    ++lazy_resident_count_;

    // Decision-log the build and any evictions (the fixed rung_mutex_
    // -> mutex_ order is reload's).
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rung_materializations;
    logLocked(strCat("t=", now, " materialize graph=", graph.name,
                     " tier=", tier, " bytes=", graph.rung_bytes[tier]));
    // Pooled LRU across every graph's lazy rungs. The rung just built
    // is explicitly protected: a budget smaller than one rung must not
    // evict the work in flight.
    while (options_.rung_budget_bytes != 0 &&
           lazy_resident_bytes_ > options_.rung_budget_bytes) {
        RegisteredGraph *victim = nullptr;
        unsigned victim_tier = 0;
        uint64_t oldest = std::numeric_limits<uint64_t>::max();
        for (const std::unique_ptr<RegisteredGraph> &g : graphs_) {
            for (unsigned t = 0; t < g->ladder.size(); ++t) {
                if (g->ladder[t].lazy() && g->rungs[t] &&
                    !(g.get() == &graph && t == tier) &&
                    g->rung_last_use[t] < oldest) {
                    oldest = g->rung_last_use[t];
                    victim = g.get();
                    victim_tier = t;
                }
            }
        }
        if (!victim)
            break;
        // In-flight requests hold the graph via shared_ptr; this only
        // drops the residency reference.
        victim->rungs[victim_tier].reset();
        victim->rung_packs[victim_tier].reset();
        lazy_resident_bytes_ -= victim->rung_bytes[victim_tier];
        --lazy_resident_count_;
        ++stats_.rung_evictions;
        logLocked(strCat("t=", now, " evict_rung graph=", victim->name,
                         " tier=", victim_tier,
                         " bytes=", victim->rung_bytes[victim_tier]));
        victim->rung_bytes[victim_tier] = 0;
    }
    stats_.lazy_resident_bytes = lazy_resident_bytes_;
    stats_.lazy_rungs_resident = lazy_resident_count_;
    return {slot, graph.rung_packs[tier]};
}

// ---------------------------------------------------------------------
// Shared bookkeeping (under mutex_)
// ---------------------------------------------------------------------

CircuitBreaker &
InferenceServer::breakerLocked(RegisteredGraph &graph, unsigned tier)
{
    // Grows on demand (register and reload can deepen a ladder); never
    // shrinks, so an in-flight request's breaker index stays valid
    // across a reload to a shallower ladder.
    while (graph.breakers.size() <= tier)
        graph.breakers.push_back(
            std::make_unique<CircuitBreaker>(options_.breaker));
    return *graph.breakers[tier];
}

void
InferenceServer::recordBreakerOutcomeLocked(Pending &item,
                                            StatusCode code,
                                            uint64_t now_ns)
{
    if (!options_.breaker.enabled || item.graph == nullptr)
        return;
    CircuitBreaker &breaker = breakerLocked(*item.graph, item.tier);
    const bool probe = std::exchange(item.breaker_probe, false);
    BreakerEvent event = BreakerEvent::kNone;
    switch (code) {
      case StatusCode::kOk:
        event = breaker.onSuccess(now_ns, probe);
        break;
      case StatusCode::kUnavailable:
      case StatusCode::kInternal:
        // The two codes that indicate the rung (backend) is sick;
        // deadline misses and cancellations say nothing about it.
        event = breaker.onFailure(now_ns, probe);
        break;
      default:
        breaker.abandonProbe(probe);
        break;
    }
    const char *name = nullptr;
    switch (event) {
      case BreakerEvent::kOpened:
        ++stats_.breaker_open_events;
        ++stats_.breakers_open;
        name = "breaker_open";
        break;
      case BreakerEvent::kClosed:
        ++stats_.breaker_close_events;
        if (stats_.breakers_open > 0)
            --stats_.breakers_open;
        name = "breaker_close";
        break;
      case BreakerEvent::kReopened:
        // Still open for the gauge's purposes (it tracks not-closed).
        ++stats_.breaker_reopen_events;
        name = "breaker_reopen";
        break;
      default:
        return;
    }
    logLocked(strCat("t=", now_ns, " ", name, " graph=", item.graph->name,
                     " tier=", item.tier));
}

void
InferenceServer::logLocked(std::string entry)
{
    // Every entry gets a monotonic sequence prefix, so interleaved
    // multi-worker logs are totally ordered regardless of equal clock
    // stamps. The observer sees every entry — including those past the
    // retention cap — so a bounded flight recorder stays complete.
    const uint64_t seq = decision_seq_++;
    std::string line = strCat("#", seq, " ", std::move(entry));
    if (ServeObserver *obs = observer())
        obs->onDecision(seq, line);
    if (decisions_.size() >= options_.max_decision_log) {
        ++stats_.decisions_dropped;
        return;
    }
    decisions_.push_back(std::move(line));
}

void
InferenceServer::evaluateDegradationLocked(uint64_t now_ns)
{
    const DegradationPolicy &policy = options_.degradation;
    if (!policy.enabled || max_level_ == 0)
        return;
    // Saturating: a worker stamps its completion before taking mutex_,
    // so a submit may have moved the level at a later stamp.
    if (elapsedNs(now_ns, last_level_change_ns_) < policy.min_dwell_ns)
        return;
    const size_t depth = sched_.size();
    const double fill = static_cast<double>(depth) /
                        static_cast<double>(sched_.capacity());
    const bool latency_high =
        policy.p95_high_ns > 0 && window_latency_.count() > 0 &&
        window_latency_.percentile(95.0) >
            static_cast<double>(policy.p95_high_ns);
    if (level_ < max_level_ &&
        (fill >= policy.high_watermark || latency_high)) {
        ++level_;
        ++stats_.degrade_steps;
        last_level_change_ns_ = now_ns;
        window_latency_ = LogHistogram();
        logLocked(strCat("t=", now_ns, " degrade level=", level_ - 1,
                         "->", level_, " depth=", depth));
    } else if (level_ > 0 && fill <= policy.low_watermark &&
               !latency_high) {
        --level_;
        ++stats_.recover_steps;
        last_level_change_ns_ = now_ns;
        window_latency_ = LogHistogram();
        logLocked(strCat("t=", now_ns, " recover level=", level_ + 1,
                         "->", level_, " depth=", depth));
    }
}

void
InferenceServer::evaluateBrownoutLocked(uint64_t now_ns)
{
    if (!tenants_ || max_level_ == 0)
        return;
    const BrownoutPolicy &policy = tenants_->options().brownout;
    if (!policy.enabled)
        return;
    const std::vector<TenantScheduler<Pending>::LaneView> lanes =
        sched_.lanes();
    size_t total = 0;
    uint64_t active_weight = 0;
    for (const auto &lane : lanes) {
        total += lane.queued;
        if (lane.queued > 0)
            active_weight += lane.weight;
    }
    const double fill = static_cast<double>(total) /
                        static_cast<double>(sched_.capacity());
    // Dense-id iteration order: deterministic across same-seed runs.
    for (uint32_t id = 0;
         id < tenants_->count() && id < lanes.size(); ++id) {
        TenantState &state = tenants_->state(id);
        if (elapsedNs(now_ns, state.last_brownout_ns) <
            policy.min_dwell_ns)
            continue;
        // Over quota = holding more than over_share_factor times the
        // weight-fair share of the queued work.
        bool over = false;
        if (total > 0 && lanes[id].queued > 0 && active_weight > 0) {
            const double share = static_cast<double>(lanes[id].queued) /
                                 static_cast<double>(total);
            const double fair =
                static_cast<double>(lanes[id].weight) /
                static_cast<double>(active_weight);
            over = share > policy.over_share_factor * fair;
        }
        if (fill >= policy.high_watermark && over &&
            state.brownout_level < policy.max_steps) {
            ++state.brownout_level;
            state.last_brownout_ns = now_ns;
            ++stats_.brownout_steps;
            ++stats_.by_tenant[state.name].brownout_steps;
            logLocked(strCat("t=", now_ns, " brownout level=",
                             state.brownout_level - 1, "->",
                             state.brownout_level,
                             " depth=", lanes[id].queued,
                             " total=", total,
                             " tenant=", state.name));
        } else if (state.brownout_level > 0 &&
                   (fill <= policy.low_watermark || !over)) {
            --state.brownout_level;
            state.last_brownout_ns = now_ns;
            ++stats_.brownout_clears;
            ++stats_.by_tenant[state.name].brownout_clears;
            logLocked(strCat("t=", now_ns, " brownout_clear level=",
                             state.brownout_level + 1, "->",
                             state.brownout_level,
                             " depth=", lanes[id].queued,
                             " tenant=", state.name));
        }
    }
}

void
InferenceServer::recordTerminalLocked(const ServeResponse &response)
{
    const RequestReport &report = response.report;
    const TerminalBucket *bucket = &kFailed;
    switch (response.status.code()) {
      case StatusCode::kOk:
        bucket = &kCompletedOk;
        if (report.tier < stats_.completed_by_tier.size())
            ++stats_.completed_by_tier[report.tier];
        break;
      case StatusCode::kDeadlineExceeded:
        bucket = &kDeadline;
        break;
      case StatusCode::kCancelled:
        bucket = &kCancelled;
        break;
      default:
        break;
    }
    count(stats_, *bucket, report.priority, report.tenant);
    // "Degraded" = dispatched and executed above rung 0; informational
    // (overlaps the terminal buckets above).
    if (report.start_ns != 0 && report.tier > 0)
        count(stats_, kDegraded, report.priority, report.tenant);
    if (report.attempts > 1) {
        stats_.retries += report.attempts - 1;
        stats_.by_tenant[report.tenant].retries += report.attempts - 1;
    }
}

void
InferenceServer::releaseLocked(Pending &item)
{
    if (std::exchange(item.breaker_probe, false) && item.graph)
        breakerLocked(*item.graph, item.tier).abandonProbe(true);
    if (tenants_ && item.admitted) {
        TenantState &state = tenants_->state(item.tenant_id);
        if (state.outstanding > 0)
            --state.outstanding;
    }
}

void
InferenceServer::rejectLocked(Pending &&item, const TerminalBucket &bucket,
                              std::string entry, Status status,
                              Finished &finished)
{
    count(stats_, bucket, item.request.priority,
          item.tenant_overflow ? kOverflowTenant : item.request.tenant);
    logLocked(std::move(entry));
    releaseLocked(item);
    ServeResponse response = responseFor(item);
    response.status = std::move(status);
    finished.emplace_back(std::move(item), std::move(response));
}

ServeResponse
InferenceServer::responseFor(const Pending &item)
{
    ServeResponse response;
    response.report.seq = item.seq;
    response.report.submit_ns = item.submit_ns;
    response.report.tier = item.tier;
    response.report.priority = item.request.priority;
    response.report.tenant = item.request.tenant;
    return response;
}

void
InferenceServer::respond(Pending &item, ServeResponse &&response)
{
    if (ServeObserver *obs = observer())
        obs->onTerminal(response.report, response.status.code());
    item.promise.set_value(std::move(response));
    if (item.admitted)
        delivered_.fetch_add(1, std::memory_order_release);
}

// ---------------------------------------------------------------------
// Admit
// ---------------------------------------------------------------------

std::future<ServeResponse>
InferenceServer::submit(ServeRequest request)
{
    Pending item;
    item.request = std::move(request);
    std::future<ServeResponse> future = item.promise.get_future();
    Finished finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        admitLocked(std::move(item), finished);
    }
    for (auto &[pending, response] : finished)
        respond(pending, std::move(response));
    return future;
}

void
InferenceServer::admitLocked(Pending &&item, Finished &finished)
{
    uint64_t now = clock_->nowNs();
    item.seq = next_seq_++;
    // Chaos arrival perturbations (virtual-time only: wall time is not
    // ours to skew). Each applied event advances the scripted clock and
    // is decision-logged, so the perturbed schedule is still a pure
    // function of the seed.
    if (options_.chaos && options_.virtual_clock) {
        const ChaosSubmitPlan plan =
            options_.chaos->planSubmit(item.seq, now);
        const auto perturb = [&](const char *kind, uint64_t ns) {
            ++stats_.chaos_events;
            logLocked(strCat("t=", now, " chaos kind=", kind,
                             " seq=", item.seq, " ns=", ns));
            options_.virtual_clock->advanceNs(ns);
        };
        if (plan.delay_ns > 0) {
            options_.chaos->noteArrivalDelay();
            perturb("queue_delay", plan.delay_ns);
        }
        if (plan.skew_ns > 0) {
            options_.chaos->noteClockSkew();
            perturb("clock_skew", plan.skew_ns);
        }
        now = clock_->nowNs();
    }
    item.submit_ns = now;

    // Tenancy prologue: resolve the tenant (registering unknown names
    // until the table cap) and apply its priority ceiling *before* the
    // submitted counters, so per-class accounting is keyed by the
    // clamped priority and over-cap tenants land under the overflow key.
    TenantState *tenant = nullptr;
    if (tenants_) {
        const std::optional<uint32_t> id =
            tenants_->resolve(item.request.tenant);
        item.tenant_overflow = !id;
        if (id) {
            item.tenant_id = *id;
            tenant = &tenants_->state(*id);
            stats_.tenant_count = tenants_->count();
            const int ceiling = tenant->policy.priority_ceiling;
            if (item.request.priority > ceiling) {
                ++stats_.priority_clamps;
                ++stats_.by_tenant[tenant->name].priority_clamps;
                logLocked(strCat("t=", now, " priority_clamp seq=",
                                 item.seq, " prio=", item.request.priority,
                                 "->", ceiling, " tenant=", tenant->name));
                item.request.priority = ceiling;
            }
        }
    }
    const std::string &key =
        item.tenant_overflow ? kOverflowTenant : item.request.tenant;
    count(stats_, kSubmitted, item.request.priority, key);

    // Validation first: a request that can never execute must not
    // occupy a queue slot another request could use.
    Status invalid;
    if (item.request.graph_id >= graphs_.size())
        invalid = Status::notFound(
            strCat("unknown graph id ", item.request.graph_id));
    else if (item.request.input.shape() !=
             graphs_[item.request.graph_id]->input_shape)
        invalid = Status::invalidArgument(
            strCat("input shape does not match graph '",
                   graphs_[item.request.graph_id]->name, "'"));
    const auto reject = [&](const TerminalBucket &bucket,
                            const char *event, const std::string &detail,
                            Status status) {
        rejectLocked(std::move(item), bucket,
                     strCat("t=", now, " ", event, " seq=", item.seq,
                            detail, " tenant=", key),
                     std::move(status), finished);
    };
    if (item.tenant_overflow) {
        reject(kRejectLimit, "reject_tenant_limit", "",
               Status::resourceExhausted(
                   strCat("tenant_limit: tenant table is full "
                          "(max_tenants=",
                          tenants_->options().max_tenants, ")")));
    } else if (draining_) {
        reject(kRejectDraining, "reject_draining", "",
               Status::unavailable("tenant_drain: server is draining"));
    } else if (!invalid.ok()) {
        reject(kRejectInvalid, "reject_invalid",
               strCat(" code=", statusCodeName(invalid.code())),
               std::move(invalid));
    } else if (item.request.deadline_ns != 0 &&
               now >= item.request.deadline_ns) {
        reject(kExpireSubmit, "expire_submit", "",
               Status::deadlineExceeded(
                   "deadline already passed at submission"));
    } else if (tenant && !tenants_->tryAcquireToken(*tenant, now)) {
        reject(kRejectRate, "reject_rate", "",
               Status::resourceExhausted(
                   strCat("tenant_rate: tenant '", key,
                          "' exceeded its admission rate")));
    } else if (tenant && tenant->policy.max_in_flight != 0 &&
               tenant->outstanding >= tenant->policy.max_in_flight) {
        reject(kRejectBulkhead, "reject_bulkhead",
               strCat(" outstanding=", tenant->outstanding),
               Status::resourceExhausted(strCat(
                   "tenant_bulkhead: tenant '", key, "' has ",
                   tenant->outstanding,
                   " outstanding requests (max_in_flight=",
                   tenant->policy.max_in_flight, ")")));
    } else if (assignRungLocked(item, tenant, now, finished)) {
        enqueueLocked(std::move(item), tenant, now, finished);
    }
}

bool
InferenceServer::assignRungLocked(Pending &item, TenantState *tenant,
                                  uint64_t now, Finished &finished)
{
    evaluateDegradationLocked(now);
    evaluateBrownoutLocked(now);
    item.graph = graphs_[item.request.graph_id].get();
    // Effective precision: the global degradation level plus the
    // tenant's brownout penalty, clamped to the ladder and then to the
    // tenant's accuracy floor.
    unsigned level = level_;
    if (tenant)
        level += tenant->brownout_level;
    item.tier = std::min<unsigned>(
        level, static_cast<unsigned>(item.graph->ladder.size()) - 1);
    if (tenant && tenant->policy.tier_floor >= 0)
        item.tier = std::min<unsigned>(
            item.tier, static_cast<unsigned>(tenant->policy.tier_floor));
    if (!options_.breaker.enabled)
        return true;

    // Circuit breaker: an open rung fast-fails here, at admission, so
    // nothing queues behind a dead rung. A half-open admit tags the
    // request as a probe; the probe slot is released by exactly one
    // terminal outcome (or an abandon on the reject/shed paths).
    const std::string where =
        strCat(" graph=", item.graph->name, " tier=", item.tier);
    const CircuitBreaker::Decision decision =
        breakerLocked(*item.graph, item.tier).admit(now);
    if (decision.event == BreakerEvent::kHalfOpened)
        logLocked(strCat("t=", now, " breaker_half_open", where));
    if (!decision.allow) {
        ++stats_.breaker_fast_fails;
        const std::string detail =
            strCat(" seq=", item.seq, where, " prio=",
                   item.request.priority, " tenant=", item.request.tenant);
        const Status status = Status::unavailable(
            strCat("circuit breaker open for '", item.graph->name,
                   "' tier ", item.tier));
        rejectLocked(std::move(item), kFailed,
                     strCat("t=", now, " breaker_fast_fail", detail),
                     status, finished);
        return false;
    }
    if (decision.probe) {
        item.breaker_probe = true;
        ++stats_.breaker_probes;
        logLocked(strCat("t=", now, " breaker_probe seq=", item.seq,
                         where));
    }
    return true;
}

void
InferenceServer::enqueueLocked(Pending &&item, TenantState *tenant,
                               uint64_t now, Finished &finished)
{
    // Retention order: higher priority wins; within a priority the
    // older request wins (so an equal-priority arrival can never shed
    // queued work — admission stays FIFO per priority class). Overload
    // evicts strictly within the submitting tenant's own lane.
    auto retain_less = [](const Pending &a, const Pending &b) {
        if (a.request.priority != b.request.priority)
            return a.request.priority < b.request.priority;
        return a.seq > b.seq;
    };
    const uint64_t seq = item.seq;
    const unsigned tier = item.tier;
    const int priority = item.request.priority;
    const RegisteredGraph &graph = *item.graph;
    const std::string tenant_key = item.request.tenant;
    if (tenant)
        sched_.ensureLane(item.tenant_id, tenant->policy.weight,
                          tenant->policy.max_queue);
    item.admitted = true;
    std::optional<Pending> evicted;
    switch (sched_.push(item.tenant_id, std::move(item), retain_less,
                        evicted)) {
      case QueuePush::kPushed:
      case QueuePush::kPushedEvicted:
        break;
      case QueuePush::kRejected:
        // The scheduler left the item intact: answer through it.
        item.admitted = false;
        rejectLocked(std::move(item), kRejectFull,
                     strCat("t=", now, " reject_full seq=", seq,
                            " prio=", priority, " tenant=", tenant_key),
                     Status::resourceExhausted("admission queue is full"),
                     finished);
        return;
      case QueuePush::kClosed:
        item.admitted = false;
        rejectLocked(std::move(item), kRejectClosed,
                     strCat("t=", now, " reject_closed seq=", seq,
                            " tenant=", tenant_key),
                     Status::unavailable("server is shut down"),
                     finished);
        return;
    }
    // `admitted` counts entries that reached the queue; a shed victim
    // stays counted there and additionally under `shed`.
    ++stats_.admitted;
    ++stats_.by_tenant[tenant_key].admitted;
    if (tenant)
        ++tenant->outstanding;
    if (evicted) {
        std::string entry = strCat(
            "t=", now, " shed seq=", evicted->seq, " prio=",
            evicted->request.priority, " by=", seq, " tenant=",
            evicted->request.tenant);
        rejectLocked(std::move(*evicted), kShed, std::move(entry),
                     Status::resourceExhausted(
                         "shed for higher-priority work"),
                     finished);
    }
    logLocked(strCat("t=", now, " admit seq=", seq, " graph=", graph.name,
                     " tier=", tier, " prio=", priority,
                     " depth=", sched_.size(), " tenant=", tenant_key));
}

// ---------------------------------------------------------------------
// Schedule
// ---------------------------------------------------------------------

std::optional<InferenceServer::Pending>
InferenceServer::schedule(bool wait)
{
    std::optional<TenantScheduler<Pending>::Popped> popped =
        wait ? sched_.popWait() : sched_.tryPop();
    if (!popped)
        return std::nullopt;
    if (tenants_) {
        std::lock_guard<std::mutex> lock(mutex_);
        logLocked(strCat("t=", clock_->nowNs(), " dispatch seq=",
                         popped->item.seq, " deficit=", popped->deficit,
                         " tenant=", popped->item.request.tenant));
    }
    return std::move(popped->item);
}

unsigned
InferenceServer::pump(unsigned max_requests)
{
    if (options_.workers != 0)
        fatal("InferenceServer::pump: server is running worker threads");
    if (currentThreadName() != "pump")
        Tracer::nameCurrentThread("pump");
    if (!pump_backend_)
        pump_backend_ = makeBackend();
    return serve(*pump_slot_, pump_backend_, 0, max_requests);
}

void
InferenceServer::workerMain(unsigned index)
{
    Tracer::nameCurrentThread(strCat("serve-worker", index));
    std::unique_ptr<MixGemmBackend> backend = makeBackend();
    serve(*slots_[index], backend, static_cast<int>(index),
          std::numeric_limits<unsigned>::max());
}

unsigned
InferenceServer::serve(WorkerSlot &slot,
                       std::unique_ptr<MixGemmBackend> &backend,
                       int worker_index, unsigned max_requests)
{
    // Threaded workers block for work; pump mode stops when it runs dry.
    unsigned executed = 0;
    while (executed < max_requests) {
        std::optional<Pending> item = schedule(options_.workers != 0);
        if (!item)
            break;
        execute(std::move(*item), slot, *backend, worker_index);
        ++executed;
        // A watchdog cancel, a quarantine or a chaos worker crash
        // taints the backend; rebuild it before the next request.
        if (slot.recycle.exchange(false))
            backend = makeBackend();
    }
    return executed;
}

// ---------------------------------------------------------------------
// Execute
// ---------------------------------------------------------------------

void
InferenceServer::sitOutQuarantine(WorkerSlot &slot, int worker_index)
{
    // The backend was already marked for recycling when the quarantine
    // was imposed; the worker now sits out the rest of its penalty.
    const uint64_t now = clock_->nowNs();
    if (now < slot.quarantined_until_ns) {
        if (options_.virtual_clock)
            options_.virtual_clock->advanceToNs(slot.quarantined_until_ns);
        else
            std::this_thread::sleep_for(std::chrono::nanoseconds(
                slot.quarantined_until_ns - now));
    }
    slot.quarantined = false;
    slot.health_failures = 0;
    const uint64_t resumed = clock_->nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.backend_recoveries;
    if (stats_.backends_quarantined > 0)
        --stats_.backends_quarantined;
    logLocked(strCat("t=", resumed, " quarantine_recover worker=",
                     worker_index));
}

void
InferenceServer::execute(Pending item, WorkerSlot &slot,
                         MixGemmBackend &backend, int worker_index)
{
    if (options_.health.enabled && slot.quarantined)
        sitOutQuarantine(slot, worker_index);

    // Snapshot the rung under rung_mutex_: a concurrent reloadGraph()
    // may swap the ladder out from under us, and a request admitted
    // against a deeper old ladder clamps to the new depth.
    RegisteredGraph &graph = *item.graph;
    std::string tier_label;
    uint64_t service_macs = 0;
    {
        std::lock_guard<std::mutex> rung_lock(rung_mutex_);
        item.tier = std::min<unsigned>(
            item.tier, static_cast<unsigned>(graph.ladder.size()) - 1);
        tier_label = graph.ladder[item.tier].label;
        service_macs = graph.tier_macs[item.tier];
    }
    ServeResponse response = responseFor(item);
    response.report.tier_label = std::move(tier_label);
    response.report.worker = worker_index;
    const uint64_t start = clock_->nowNs();
    response.report.start_ns = start;

    const uint64_t deadline = item.request.deadline_ns;
    if (deadline != 0 && start >= deadline) {
        response.status =
            Status::deadlineExceeded("deadline passed while queued");
        {
            std::lock_guard<std::mutex> lock(mutex_);
            count(stats_, kExpireQueue, item.request.priority,
                  item.request.tenant);
            logLocked(strCat("t=", start, " expire_queue seq=", item.seq,
                             " tenant=", item.request.tenant));
            // Abandons a breaker probe: a queue expiry says nothing
            // about the rung's health.
            releaseLocked(item);
            recordTerminalLocked(response);
        }
        respond(item, std::move(response));
        return;
    }

    // Resolve (and if needed materialize) the rung *after* the queue
    // deadline check: a request that expired waiting must not trigger
    // a build it will never use.
    const RungRef rung = resolveRung(graph, item.tier, start);
    auto source = std::make_shared<CancelSource>();
    if (deadline != 0)
        source->setDeadline(deadline, *clock_);
    source->setProgressCounter(&slot.progress);
    const CancelToken token = source->token();
    {
        std::lock_guard<std::mutex> lock(slot.mutex);
        slot.active = source;
    }
    slot.busy_since.store(start, std::memory_order_release);
    slot.busy_seq.store(item.seq + 1, std::memory_order_release);
    backend.setCancelToken(&token);
    backend.setPrepacked(rung.pack.get());
    backend.setTraceLabel(strCat(graph.name, "/",
                                 response.report.tier_label, "/req",
                                 item.seq));
    backend.setRequestContext({item.seq, item.request.tenant, item.tier});
    {
        // One span per request execution, so a request's attempts,
        // retries and GEMM spans stitch into one Perfetto segment.
        TRACE_SCOPE("serve", [&] {
            return strCat("req", item.seq, "/", graph.name, "/",
                          response.report.tier_label);
        });
        Execution run{item, rung, slot, backend, *source, token};
        runAttempts(run, service_macs, response);
    }
    backend.setCancelToken(nullptr);
    backend.setPrepacked(nullptr);
    backend.clearRequestContext();
    slot.busy_seq.store(0, std::memory_order_release);
    slot.busy_since.store(0, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(slot.mutex);
        slot.active.reset();
    }
    finalize(std::move(item), std::move(response), slot, worker_index,
             backend.lastAbft().tiles_uncorrected);
}

void
InferenceServer::runAttempts(Execution &run, uint64_t service_macs,
                             ServeResponse &response)
{
    const Pending &item = run.item;
    const uint64_t deadline = item.request.deadline_ns;
    const unsigned max_retries =
        item.request.max_retries >= 0
            ? static_cast<unsigned>(item.request.max_retries)
            : options_.max_retries;
    unsigned attempts = 0;
    for (;;) {
        Expected<std::vector<double>> result = attempt(run, ++attempts);
        response.status = result.ok() ? Status() : result.status();
        if (result.ok())
            response.output = std::move(*result);
        // Virtual-time mode: the GEMMs above completed instantly in
        // scripted time, so charge the rung's modeled service cost now
        // — this is what makes queueing dynamics (and thus every
        // degradation decision) reproducible under a fixed seed.
        if (options_.virtual_clock)
            options_.virtual_clock->advanceNs(
                service_macs * options_.virtual_ns_per_mac);
        const StatusCode code = response.status.code();
        if (response.status.ok() || !statusCodeIsRetriable(code) ||
            attempts > max_retries || run.token.cancelled())
            break;
        const uint64_t backoff = options_.retry_backoff_ns
                                 << (attempts - 1);
        const uint64_t now = clock_->nowNs();
        if (deadline != 0 && now + backoff >= deadline)
            break; // no room left for another attempt
        // Global retry budget: a denied token makes this failure final
        // — under a correlated failure burst, retries stay bounded
        // instead of amplifying the load.
        if (!retry_budget_.tryAcquire(now)) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.retry_budget_denied;
            logLocked(strCat("t=", now, " retry_denied_budget seq=",
                             item.seq, " attempt=", attempts + 1,
                             " tenant=", item.request.tenant));
            break;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            logLocked(strCat("t=", now, " retry seq=", item.seq,
                             " attempt=", attempts + 1, " code=",
                             statusCodeName(code),
                             " tenant=", item.request.tenant));
        }
        if (options_.virtual_clock)
            options_.virtual_clock->advanceNs(backoff);
        else
            std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
    }
    response.report.attempts = attempts;
}

Expected<std::vector<double>>
InferenceServer::attempt(Execution &run, unsigned attempt)
{
    // Chaos plan for this attempt: a pure function of (seed, seq,
    // attempt), so the injected fault schedule is identical across
    // same-seed runs regardless of interleaving.
    ChaosAttemptPlan plan;
    if (options_.chaos)
        plan = options_.chaos->planAttempt(run.item.seq, attempt,
                                           run.item.tier, clock_->nowNs());
    const auto inject = [&](const char *kind, const std::string &extra) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.chaos_events;
        logLocked(strCat("t=", clock_->nowNs(), " chaos kind=", kind,
                         " seq=", run.item.seq, " attempt=", attempt,
                         extra));
    };
    try {
        switch (plan.action) {
          case ChaosAttemptPlan::Action::kThrow:
            options_.chaos->noteThrow();
            inject("throw", "");
            throw std::runtime_error("chaos: injected worker crash");
          case ChaosAttemptPlan::Action::kTransient:
            options_.chaos->noteTransient();
            inject("transient", "");
            return Status::unavailable(
                "chaos: injected transient backend error");
          case ChaosAttemptPlan::Action::kStall:
            options_.chaos->noteStall();
            inject("stall", strCat(" ns=", plan.stall_ns));
            return race(run, attempt, plan.stall_ns);
          case ChaosAttemptPlan::Action::kNone:
            break;
        }
        return race(run, attempt, 0);
    } catch (const std::exception &e) {
        return Status::internal(strCat("serve worker: ", e.what()));
    }
}

Status
InferenceServer::stall(uint64_t stall_ns, const CancelToken &token)
{
    if (options_.virtual_clock) {
        options_.virtual_clock->advanceNs(stall_ns);
    } else {
        // Spin with no heartbeat, so the watchdog sees a genuinely
        // stuck worker.
        const auto begin = std::chrono::steady_clock::now();
        while (!token.cancelled() &&
               static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - begin)
                       .count()) < stall_ns)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (token.cancelled())
            return token.status();
    }
    return Status::unavailable("chaos: stalled attempt");
}

Expected<std::vector<double>>
InferenceServer::race(Execution &run, unsigned attempt, uint64_t stall_ns)
{
    using Result = Expected<std::vector<double>>;
    const Tensor<double> &input = run.item.request.input;
    const auto primary = [&]() -> Result {
        if (stall_ns > 0)
            return stall(stall_ns, run.token);
        return run.rung.graph->tryRun(input, run.backend);
    };
    const HedgeOptions &hedge = options_.hedge;
    if (!hedge.enabled)
        return primary();

    // First-wins race: if the primary has not finished after delay_ns,
    // a duplicate launches and whichever result lands first is used.
    // Under a VirtualClock the race is modeled — compute is instant in
    // scripted time, so only an injected stall delays the primary, and
    // a hedge launched past the delay always wins on the same backend.
    // Otherwise both run on threads (the hedge on the slot's lazily
    // created second backend) and the loser is cancelled; declaration
    // order guarantees the futures are destroyed before their tokens.
    VirtualClock *const vclock = options_.virtual_clock;
    std::future<Result> first;
    if (vclock) {
        if (stall_ns <= hedge.delay_ns)
            return primary();
        vclock->advanceNs(hedge.delay_ns);
    } else {
        first = std::async(std::launch::async, primary);
        if (first.wait_for(std::chrono::nanoseconds(hedge.delay_ns)) ==
            std::future_status::ready)
            return first.get();
    }
    const auto note = [&](uint64_t &counter, const char *event) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counter;
        logLocked(strCat("t=", clock_->nowNs(), " ", event, " seq=",
                         run.item.seq, " attempt=", attempt));
    };
    note(stats_.hedges_launched, "hedge_launch");

    std::optional<Result> result;
    bool hedge_won = true;
    if (vclock) {
        result.emplace(run.rung.graph->tryRun(input, run.backend));
    } else {
        if (!run.slot.hedge_backend)
            run.slot.hedge_backend = makeBackend();
        MixGemmBackend &spare = *run.slot.hedge_backend;
        auto hedge_source = std::make_shared<CancelSource>();
        if (run.item.request.deadline_ns != 0)
            hedge_source->setDeadline(run.item.request.deadline_ns,
                                      *clock_);
        const CancelToken hedge_token = hedge_source->token();
        spare.setCancelToken(&hedge_token);
        spare.setPrepacked(run.rung.pack.get());
        spare.setRequestContext(
            {run.item.seq, run.item.request.tenant, run.item.tier});
        std::future<Result> second = std::async(
            std::launch::async,
            [&]() -> Result { return run.rung.graph->tryRun(input, spare); });
        const auto ready = [](std::future<Result> &f, auto wait) {
            return f.wait_for(wait) == std::future_status::ready;
        };
        while (!ready(first, std::chrono::milliseconds(1)) &&
               !ready(second, std::chrono::seconds(0))) {
        }
        hedge_won = !ready(first, std::chrono::seconds(0));
        result.emplace(hedge_won ? second.get() : first.get());
        if (hedge_won) {
            run.source.cancel(Status::cancelled("hedge won the race"));
            first.wait();
        } else {
            hedge_source->cancel(Status::cancelled("primary won the race"));
            second.wait();
        }
        spare.setCancelToken(nullptr);
        spare.setPrepacked(nullptr);
        spare.clearRequestContext();
    }
    if (hedge_won && result->ok())
        note(stats_.hedge_wins, "hedge_win");
    return std::move(*result);
}

// ---------------------------------------------------------------------
// Finalize
// ---------------------------------------------------------------------

void
InferenceServer::finalize(Pending &&item, ServeResponse &&response,
                          WorkerSlot &slot, int worker_index,
                          uint64_t abft_uncorrected)
{
    const uint64_t done = clock_->nowNs();
    const uint64_t deadline = item.request.deadline_ns;
    // A response that arrives after its deadline is as useless as one
    // that never arrives: count it as a miss and discard the output,
    // even though the compute finished.
    if (response.status.ok() && deadline != 0 && done > deadline)
        response.status = Status::deadlineExceeded(
            "completed after the deadline; output discarded");
    if (!response.status.ok())
        response.output.clear();
    response.report.done_ns = done;
    const StatusCode code = response.status.code();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const uint64_t start = response.report.start_ns;
        metrics_.addNs("serve/queue_ns", start - item.submit_ns);
        metrics_.addNs("serve/exec_ns", done - start);
        metrics_.addNs("serve/total_ns", done - item.submit_ns);
        window_latency_.add(done - item.submit_ns);
        logLocked(strCat("t=", done, " done seq=", item.seq, " code=",
                         statusCodeName(code), " tier=", item.tier,
                         " attempts=", response.report.attempts,
                         " tenant=", item.request.tenant));
        recordBreakerOutcomeLocked(item, code, done);
        releaseLocked(item);
        // Per-backend health scoring: consecutive kUnavailable /
        // kInternal outcomes quarantine the worker — its backend is
        // recycled and it sits out quarantine_ns before the next
        // request. The slot's health fields are owned by this thread;
        // only the stats need mutex_.
        if (options_.health.enabled) {
            if (code == StatusCode::kUnavailable ||
                code == StatusCode::kInternal) {
                if (++slot.health_failures >=
                        options_.health.quarantine_after &&
                    !slot.quarantined) {
                    slot.quarantined = true;
                    slot.quarantined_until_ns =
                        done + options_.health.quarantine_ns;
                    slot.recycle.store(true, std::memory_order_release);
                    ++stats_.backend_quarantines;
                    ++stats_.backends_quarantined;
                    logLocked(strCat("t=", done, " quarantine worker=",
                                     worker_index, " until=",
                                     slot.quarantined_until_ns));
                }
            } else if (code == StatusCode::kOk) {
                slot.health_failures = 0;
            }
        }
        recordTerminalLocked(response);
        evaluateDegradationLocked(done);
    }
    if (abft_uncorrected > 0) {
        if (ServeObserver *obs = observer())
            obs->onAbftUncorrectable(item.seq, abft_uncorrected, done);
    }
    respond(item, std::move(response));
}

// ---------------------------------------------------------------------
// Watchdog, drain, shutdown, snapshots
// ---------------------------------------------------------------------

void
InferenceServer::watchdogMain()
{
    Tracer::nameCurrentThread("watchdog");
    struct Track
    {
        uint64_t seq = 0;
        uint64_t progress = 0;
        uint64_t last_change_ns = 0;
    };
    std::vector<Track> tracks(slots_.size());
    std::unique_lock<std::mutex> lock(watchdog_mutex_);
    while (!stopping_) {
        watchdog_cv_.wait_for(
            lock, std::chrono::nanoseconds(options_.watchdog_poll_ns),
            [this] { return stopping_; });
        if (stopping_)
            break;
        const uint64_t now = clock_->nowNs();
        for (size_t w = 0; w < slots_.size(); ++w) {
            WorkerSlot &slot = *slots_[w];
            Track &track = tracks[w];
            const uint64_t seq =
                slot.busy_seq.load(std::memory_order_acquire);
            if (seq == 0) {
                track.seq = 0;
                continue;
            }
            const uint64_t progress =
                slot.progress.load(std::memory_order_acquire);
            if (seq != track.seq || progress != track.progress) {
                track.seq = seq;
                track.progress = progress;
                track.last_change_ns = now;
                continue;
            }
            const uint64_t busy_since =
                slot.busy_since.load(std::memory_order_acquire);
            const uint64_t idle_since =
                std::max(track.last_change_ns, busy_since);
            if (now - idle_since < options_.watchdog_timeout_ns)
                continue;
            // No heartbeat for a full timeout: cancel the request and
            // mark the worker's backend for replacement — whatever
            // wedged it must not leak into the next request.
            std::shared_ptr<CancelSource> active;
            {
                std::lock_guard<std::mutex> slot_lock(slot.mutex);
                if (slot.busy_seq.load(std::memory_order_acquire) == seq)
                    active = slot.active;
            }
            if (!active)
                continue;
            active->cancel(Status::unavailable(strCat(
                "watchdog: worker ", w, " made no progress for ",
                now - idle_since, " ns")));
            slot.recycle.store(true, std::memory_order_release);
            track.last_change_ns = now; // one cancel per timeout window
            {
                std::lock_guard<std::mutex> stats_lock(mutex_);
                ++stats_.watchdog_cancels;
                logLocked(strCat("t=", now, " watchdog_cancel worker=",
                                 w, " seq=", seq - 1));
            }
            // Outside mutex_: the observer may snapshot server state
            // (e.g. to dump a postmortem bundle).
            if (ServeObserver *obs = observer())
                obs->onWatchdogCancel(static_cast<unsigned>(w), seq - 1,
                                      now);
        }
    }
}

void
InferenceServer::beginDrain()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_)
        return;
    draining_ = true;
    stats_.draining = true;
    const uint64_t now = clock_->nowNs();
    logLocked(strCat("t=", now, " drain_begin depth=", sched_.size()));
    if (!tenants_)
        return;
    const std::vector<TenantScheduler<Pending>::LaneView> lanes =
        sched_.lanes();
    for (uint32_t id = 0; id < tenants_->count(); ++id) {
        const size_t queued = id < lanes.size() ? lanes[id].queued : 0;
        const uint64_t deficit = id < lanes.size() ? lanes[id].deficit : 0;
        logLocked(strCat("t=", now, " drain_tenant queued=", queued,
                         " deficit=", deficit, " outstanding=",
                         tenants_->state(id).outstanding,
                         " tenant=", tenants_->state(id).name));
    }
}

bool
InferenceServer::drained() const
{
    // Admitted minus delivered, where delivery is counted only after
    // the promise is fulfilled: a request between pop and execution (a
    // quarantine wait, a lazy rung build) still counts. Reading
    // delivered first makes equal counts mean every request admitted
    // by the second read had been delivered by the first.
    const uint64_t delivered = delivered_.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_.admitted == delivered;
}

bool
InferenceServer::awaitDrained(uint64_t timeout_ns)
{
    // Pump / virtual-time mode: time only advances when the caller
    // pumps, so waiting here could never make progress.
    if (options_.workers == 0 || options_.virtual_clock)
        return drained();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(timeout_ns);
    while (!drained()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return drained();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

void
InferenceServer::shutdown()
{
    if (shut_down_.exchange(true))
        return;
    {
        std::lock_guard<std::mutex> lock(watchdog_mutex_);
        stopping_ = true;
    }
    watchdog_cv_.notify_all();
    sched_.close();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
    if (watchdog_.joinable())
        watchdog_.join();
    // Threaded workers drained the queue before exiting (popWait only
    // returns empty once closed *and* drained). In pump mode — or if a
    // worker died — whatever is left must still get a terminal status.
    // Leftovers come out in DWRR order, so even the cancellations at
    // shutdown are weight-fair across tenants.
    Finished finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        while (std::optional<TenantScheduler<Pending>::Popped> popped =
                   sched_.tryPop()) {
            Pending &item = popped->item;
            // Cut-short drain: fair cancellation with per-tenant
            // accounting. A drop says nothing about the rung's health,
            // so a breaker probe is abandoned, not judged.
            if (draining_)
                count(stats_, kDrainCancelled, item.request.priority,
                      item.request.tenant);
            rejectLocked(std::move(item), kFailed,
                         strCat("t=", clock_->nowNs(), " drop_shutdown seq=",
                                item.seq, " tenant=", item.request.tenant),
                         Status::unavailable("server shut down"), finished);
        }
    }
    for (auto &[pending, response] : finished)
        respond(pending, std::move(response));
}

ServerStats
InferenceServer::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServerStats snapshot = stats_;
    snapshot.degradation_level = level_;
    snapshot.queue_depth = sched_.size();
    snapshot.retry_budget_level = retry_budget_.level(clock_->nowNs());
    snapshot.draining = draining_;
    if (!tenants_)
        return snapshot;
    snapshot.tenant_count = tenants_->count();
    const std::vector<TenantScheduler<Pending>::LaneView> lanes =
        sched_.lanes();
    for (uint32_t id = 0; id < tenants_->count(); ++id) {
        const TenantState &state = tenants_->state(id);
        TenantStats &ten = snapshot.by_tenant[state.name];
        ten.brownout_level = state.brownout_level;
        ten.in_flight = state.outstanding;
        ten.tokens = state.tokens;
        ten.weight = state.policy.weight;
        if (id < lanes.size()) {
            ten.queue_depth = lanes[id].queued;
            ten.deficit = lanes[id].deficit;
            ten.weight = lanes[id].weight;
        }
    }
    return snapshot;
}

std::vector<std::string>
InferenceServer::decisionLog() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return decisions_;
}

MetricSet
InferenceServer::latencyMetrics() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return metrics_;
}

} // namespace mixgemm
