/**
 * @file
 * Embeddable inference server over the Mix-GEMM runtime.
 *
 * The paper positions Mix-GEMM as the compute engine of an edge
 * inference stack (ONNX Runtime backend, Fig. 3); this module supplies
 * the robustness layer such a deployment needs around the kernel:
 * bounded admission (reject, never queue unboundedly), priority-aware
 * load shedding, per-request deadlines enforced by cooperative
 * cancellation at macro-tile boundaries, load-aware precision
 * degradation down a pre-quantized ladder (the paper's own
 * accuracy-for-throughput trade, applied dynamically), a watchdog that
 * cancels and recycles stuck workers, and retry-with-backoff for
 * transient (kUnavailable) failures such as ABFT retry exhaustion.
 *
 * Each request passes through four stages over one record: admit
 * (validation, tenant quota, breaker fast-fail, enqueue), schedule
 * (the pop), execute (the attempt loop with chaos, retry budget and
 * hedge race) and finalize (counters, breaker and health outcome, the
 * log line, the observer, the promise).
 *
 * Every *decision* the server makes — admit/shed/reject, degrade/
 * recover, retry, expire — reads time from a Clock and is appended to a
 * decision log. With a VirtualClock and workers = 0 (pump mode) the
 * whole server is synchronous and deterministic: two runs with the same
 * seed produce byte-identical decision logs, which is how the soak
 * harness and tests pin scheduling behaviour.
 */

#ifndef MIXGEMM_SERVE_SERVER_H
#define MIXGEMM_SERVE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/clock.h"
#include "common/status.h"
#include "runtime/backend.h"
#include "runtime/qgraph.h"
#include "serve/resilience.h"
#include "serve/tenancy.h"
#include "trace/metrics.h"

namespace mixgemm
{

class PackedModelIndex;  // store/store.h
class PackedWeightStore; // store/store.h
class ChaosEngine;       // serve/chaos.h
struct TerminalBucket;   // serve/server.cc

/** One rung of a registered graph's precision ladder. */
struct TierSpec
{
    QuantizedGraph graph;
    /// Human-readable precision label ("a8-w8", "a4-w4", ...).
    std::string label;

    /**
     * Lazy rung: when set, @ref graph stays empty and this builder runs
     * on the *first request* that degrades to this precision — unused
     * rungs never pay their quantization or packing cost
     * (ladder.h::buildLazyPrecisionLadder). The builder must be
     * deterministic (same graph every invocation): an evicted rung that
     * re-materializes must produce bitwise-identical results, and with
     * a content-addressed weight store a rebuild re-derives the same
     * artifact key. Rung 0 must be eager — it is the ladder's
     * always-available fallback and its dry run calibrates the
     * virtual-time cost model.
     */
    std::function<QuantizedGraph()> build;
    /// Precision of a lazy rung (for the analytic cost model).
    unsigned a_bits = 8;
    unsigned w_bits = 8;

    bool lazy() const { return static_cast<bool>(build); }
};

/**
 * Load-aware precision degradation policy. The server keeps one global
 * degradation level; each admitted request executes the rung
 * min(level, ladder size - 1) of its graph's ladder. The level moves
 * *up* (coarser precision, faster GEMMs) when the queue fills past
 * @ref high_watermark or the recent-latency p95 exceeds
 * @ref p95_high_ns, and back *down* when the queue drains below
 * @ref low_watermark — but never more often than @ref min_dwell_ns
 * (hysteresis), so a noisy load pattern cannot make it thrash.
 */
struct DegradationPolicy
{
    bool enabled = true;
    double high_watermark = 0.75; ///< queue fill fraction that degrades
    double low_watermark = 0.25;  ///< queue fill fraction that recovers
    /// Recent total-latency p95 (ns) that also degrades; 0 disables the
    /// latency trigger. The window resets at every level change.
    uint64_t p95_high_ns = 0;
    uint64_t min_dwell_ns = 0; ///< minimum time between level changes
};

/** Server construction knobs. */
struct ServerOptions
{
    /**
     * Worker threads. 0 selects *pump mode*: no threads are started and
     * queued requests execute synchronously inside pump() on the
     * caller's thread — the deterministic mode the virtual-time soak
     * and the decision-log tests run in.
     */
    unsigned workers = 2;
    size_t queue_capacity = 64; ///< admission queue bound (≥ 1)
    unsigned backend_threads = 1; ///< GEMM threads per worker backend
    KernelMode kernel_mode = KernelMode::Fast;
    DegradationPolicy degradation;

    /** Default retry budget for retriable (kUnavailable) failures. */
    unsigned max_retries = 2;
    /** First retry backoff; doubles per attempt. Counted against the
     * request's deadline — a retry that cannot fit is not taken. */
    uint64_t retry_backoff_ns = 1'000'000;

    /**
     * Watchdog: a busy worker whose progress heartbeat (cancellation-
     * token polls) has not moved for this long is presumed stuck; its
     * request is cancelled (kUnavailable, hence retriable on resubmit)
     * and the worker's backend is recycled. 0 disables the watchdog.
     * Only armed in threaded mode.
     */
    uint64_t watchdog_timeout_ns = 2'000'000'000;
    uint64_t watchdog_poll_ns = 50'000'000; ///< watchdog check period

    /** Decision-time source. Null selects MonotonicClock::instance(). */
    const Clock *clock = nullptr;
    /**
     * Virtual-time mode: decisions read this clock, and each execution
     * *advances* it by the rung's modeled service time — its
     * precision-weighted MAC count (in 8x8-equivalent MACs, so coarser
     * rungs model as faster) times @ref virtual_ns_per_mac — making
     * queueing dynamics simulated and deterministic. Requires
     * workers = 0.
     */
    VirtualClock *virtual_clock = nullptr;
    uint64_t virtual_ns_per_mac = 100; ///< ns per 8x8-equivalent MAC

    /** ABFT policy applied to every worker backend (see gemm/abft.h). */
    FaultPolicy fault_policy = FaultPolicy::Off;
    unsigned abft_max_retries = 2;
    /** Fault-injection engine shared by the backends (campaign/tests;
     * pump mode only — injectors are not thread-safe). Not owned. */
    FaultInjector *fault_injector = nullptr;

    /** Observability sink for per-GEMM reports. Not owned. */
    TraceSession *session = nullptr;

    /**
     * Packed-weight store consulted when a rung materializes: its
     * weights load pack-once / mmap-thereafter, and every GEMM of the
     * rung runs from the pre-packed panels instead of re-packing per
     * call. Not owned; must outlive the server. Null = pack per call,
     * as before.
     */
    PackedWeightStore *weight_store = nullptr;

    /**
     * LRU byte budget across *lazily materialized* rungs (graph +
     * packed panels), all graphs pooled. When a materialization pushes
     * the pool past the budget, least-recently-used lazy rungs are
     * evicted (decision-logged); a later request at that precision
     * deterministically re-materializes. Eager rungs are never
     * evicted. 0 = unbounded.
     */
    uint64_t rung_budget_bytes = 0;

    /**
     * Deterministic chaos plane (serve/chaos.h) and the server's only
     * fault seam. When set, every execution attempt and (under a
     * VirtualClock) every submission consults the engine for injected
     * faults; each applied event is decision-logged, so same-seed chaos
     * soaks stay byte-identical. Tests script faults by overriding
     * ChaosEngine::planAttempt. Null — the default — takes none of
     * these code paths. Not owned.
     */
    ChaosEngine *chaos = nullptr;

    /** Per-(graph, rung) circuit breakers; disabled by default. An
     * open breaker fast-fails requests for its rung at admission. */
    BreakerOptions breaker;
    /** Global retry token bucket; disabled by default. A retry that
     * cannot acquire a token is suppressed (the failure is final). */
    RetryBudgetOptions retry_budget;
    /** Hedged requests; disabled by default. One first-wins race
     * between an attempt and a delayed duplicate: modeled under a
     * VirtualClock, run on threads otherwise. */
    HedgeOptions hedge;
    /** Per-backend health scoring with quarantine; disabled by
     * default. */
    HealthOptions health;

    /**
     * Multi-tenant isolation plane (serve/tenancy.h); disabled by
     * default. Work always queues in a TenantScheduler. When enabled,
     * admission enforces per-tenant token-bucket rates, bulkheads,
     * priority ceilings and accuracy floors, each tenant gets its own
     * bounded lane drained by deficit weighted round robin (every
     * dispatch is decision-logged), and a load-aware brownout
     * controller degrades over-quota tenants down the precision ladder
     * before in-quota ones. Disabled, every request shares one FIFO
     * lane and no dispatch lines are logged.
     */
    TenancyOptions tenancy;

    /** Decision-log size cap; beyond it entries are counted, not kept. */
    size_t max_decision_log = 200'000;
};

/** One inference request. */
struct ServeRequest
{
    uint64_t graph_id = 0;       ///< from registerGraph()
    Tensor<double> input;        ///< must match the registered shape
    uint64_t deadline_ns = 0;    ///< absolute, per server clock; 0 = none
    int priority = 0;            ///< higher = more valuable (shed last)
    int max_retries = -1;        ///< -1 = server default
    /// Submitting tenant. With tenancy disabled this is pure metadata
    /// (telemetry labels, per-tenant SLO tracking); with
    /// ServerOptions::tenancy enabled it selects the tenant's quota,
    /// fair-share lane, and brownout/accuracy policy.
    std::string tenant = "default";
};

/** Per-request accounting returned with every response. */
struct RequestReport
{
    uint64_t seq = 0;       ///< admission sequence number
    unsigned tier = 0;      ///< ladder rung the request executed at
    std::string tier_label; ///< its precision label
    int worker = -1;        ///< worker index (-1: rejected before dispatch)
    unsigned attempts = 0;  ///< execution attempts (≥ 1 if dispatched)
    int priority = 0;       ///< request's priority class
    std::string tenant;     ///< request's tenant
    uint64_t submit_ns = 0;
    uint64_t start_ns = 0; ///< dequeue time (0 if never dispatched)
    uint64_t done_ns = 0;
};

/** Inference outcome: status, logits (empty unless ok), accounting. */
struct ServeResponse
{
    Status status;
    std::vector<double> output;
    RequestReport report;
};

/**
 * Per-priority-class terminal accounting. For every class the identity
 *
 *   submitted == completed_ok + shed + rejected_full + rejected_invalid
 *              + rejected_closed + rejected_quota + rejected_draining
 *              + expired_submit + deadline_exceeded
 *              + cancelled + failed
 *
 * holds once the server has drained (expired_queue is an informational
 * subcount of deadline_exceeded; degraded counts dispatched requests
 * that executed above rung 0 and overlaps the terminal buckets).
 */
struct PriorityClassStats
{
    uint64_t submitted = 0;
    uint64_t completed_ok = 0;
    uint64_t shed = 0;
    uint64_t rejected_full = 0;
    uint64_t rejected_invalid = 0;
    uint64_t rejected_closed = 0;
    /// Tenancy quota rejections (rate, bulkhead, tenant-table limit);
    /// zero unless ServerOptions::tenancy is enabled.
    uint64_t rejected_quota = 0;
    /// Rejected because the server was draining (beginDrain()).
    uint64_t rejected_draining = 0;
    uint64_t expired_submit = 0;
    uint64_t expired_queue = 0;
    uint64_t deadline_exceeded = 0;
    uint64_t cancelled = 0;
    uint64_t failed = 0;
    uint64_t degraded = 0;
};

/** Aggregate server counters (one consistent snapshot). */
struct ServerStats
{
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t completed_ok = 0;
    uint64_t rejected_full = 0;    ///< queue full, nothing shed
    uint64_t rejected_invalid = 0; ///< bad graph id / shape
    uint64_t rejected_closed = 0;  ///< submitted after shutdown
    uint64_t shed = 0;             ///< displaced by higher-priority work
    uint64_t expired_submit = 0;   ///< deadline already passed at submit
    uint64_t expired_queue = 0;    ///< deadline passed while queued
    uint64_t deadline_exceeded = 0;///< tripped or missed during execution
    uint64_t cancelled = 0;        ///< explicit cancellation
    uint64_t failed = 0;           ///< other non-ok terminal statuses
    uint64_t retries = 0;          ///< extra attempts taken
    uint64_t degrade_steps = 0;
    uint64_t recover_steps = 0;
    uint64_t watchdog_cancels = 0;
    uint64_t rung_materializations = 0; ///< lazy rungs built on demand
    uint64_t rung_evictions = 0;        ///< lazy rungs dropped by budget
    uint64_t lazy_rungs_resident = 0;   ///< currently materialized
    uint64_t lazy_resident_bytes = 0;   ///< their pooled footprint
    uint64_t decisions_dropped = 0; ///< log entries beyond the cap

    // Resilience layer (all zero unless the matching option is on).
    uint64_t breaker_open_events = 0;   ///< closed -> open transitions
    uint64_t breaker_reopen_events = 0; ///< half-open probe failures
    uint64_t breaker_close_events = 0;  ///< half-open -> closed
    uint64_t breaker_probes = 0;        ///< half-open probe admissions
    uint64_t breaker_fast_fails = 0;    ///< fast-failed at admission
    uint64_t breakers_open = 0;         ///< breakers currently not closed
    uint64_t retry_budget_denied = 0;   ///< retries the budget suppressed
    double retry_budget_level = 0.0;    ///< tokens left (snapshot time)
    uint64_t hedges_launched = 0;
    uint64_t hedge_wins = 0;            ///< hedge result was used
    uint64_t backend_quarantines = 0;
    uint64_t backend_recoveries = 0;
    uint64_t backends_quarantined = 0;  ///< currently quarantined
    uint64_t chaos_events = 0;          ///< injected chaos events applied
    uint64_t graph_reloads = 0;         ///< hot ladder swaps

    // Tenancy plane (all zero / empty unless tenancy is enabled,
    // except by_tenant, which accumulates terminal accounting keyed by
    // request tenant in both modes).
    uint64_t rejected_rate = 0;     ///< tenant token bucket empty
    uint64_t rejected_bulkhead = 0; ///< tenant max_in_flight exceeded
    uint64_t rejected_tenant_limit = 0; ///< tenant table full
    uint64_t rejected_draining = 0; ///< submitted after beginDrain()
    uint64_t brownout_steps = 0;    ///< per-tenant brownout escalations
    uint64_t brownout_clears = 0;   ///< per-tenant brownout recoveries
    uint64_t priority_clamps = 0;   ///< priorities clamped to ceilings
    uint64_t drain_cancelled = 0;   ///< queued work cancelled by drain
    uint64_t tenant_count = 0;      ///< tenants registered
    bool draining = false;          ///< beginDrain() has been called

    unsigned degradation_level = 0;
    size_t queue_depth = 0;
    std::vector<uint64_t> completed_by_tier; ///< ok completions per rung
    /// Terminal accounting per priority class (see PriorityClassStats).
    std::map<int, PriorityClassStats> by_priority;
    /// Per-tenant accounting (see TenantStats for the identity).
    std::map<std::string, TenantStats> by_tenant;
};

/**
 * Telemetry hook into the server's event stream. All callbacks must be
 * fast and must never call back into the InferenceServer:
 * onDecision() runs under the server's internal mutex (calling
 * stats()/decisionLog() from it deadlocks); the other callbacks run
 * outside it but still sit on the serving hot path.
 */
class ServeObserver
{
  public:
    virtual ~ServeObserver() = default;

    /** One decision-log line, in log order (@p decision_seq is the
     * line's "#N" prefix; entries past the log cap still arrive). */
    virtual void onDecision(uint64_t decision_seq,
                            const std::string &line)
    {
        (void)decision_seq;
        (void)line;
    }

    /** A request reached a terminal state (including rejections). */
    virtual void onTerminal(const RequestReport &report, StatusCode code)
    {
        (void)report;
        (void)code;
    }

    /** The watchdog cancelled a stuck worker's request. */
    virtual void onWatchdogCancel(unsigned worker, uint64_t seq,
                                  uint64_t now_ns)
    {
        (void)worker;
        (void)seq;
        (void)now_ns;
    }

    /** A GEMM finished with ABFT-uncorrectable tiles. */
    virtual void onAbftUncorrectable(uint64_t seq, uint64_t tiles,
                                     uint64_t now_ns)
    {
        (void)seq;
        (void)tiles;
        (void)now_ns;
    }
};

/**
 * Embeddable inference server; see the file comment for the design.
 * Thread-safe: submit()/stats()/decisionLog() may be called from any
 * thread. Destruction shuts down, failing queued work with
 * kUnavailable.
 */
class InferenceServer
{
  public:
    explicit InferenceServer(ServerOptions options);
    ~InferenceServer();

    InferenceServer(const InferenceServer &) = delete;
    InferenceServer &operator=(const InferenceServer &) = delete;

    /**
     * Register a named graph with its precision ladder (full precision
     * first, coarser rungs after) and the input shape every request
     * must match. Each rung is dry-run once against a MAC-counting
     * backend, which both validates that it accepts the declared shape
     * and measures the modeled service cost used in virtual-time mode.
     * Returns the graph id submit() takes.
     */
    Expected<uint64_t> registerGraph(std::string name,
                                     std::vector<TierSpec> ladder,
                                     std::vector<size_t> input_shape);

    /**
     * Submit a request. Admission happens synchronously — validation,
     * degradation-level assignment, and the admit/shed/reject decision
     * — and the returned future resolves when the request reaches a
     * terminal state (possibly already, if it was rejected). Never
     * blocks on a full queue.
     */
    std::future<ServeResponse> submit(ServeRequest request);

    /**
     * Hot-reload a registered graph's precision ladder in place: the
     * new rungs are built and dry-run *outside* the server locks, then
     * swapped atomically under rung_mutex_. In-flight and queued
     * requests keep running — a request admitted against the old
     * ladder whose rung index exceeds the new ladder is clamped at
     * execution. The input shape is unchanged; the new ladder must
     * satisfy the same invariants as registerGraph (rung 0 eager).
     * Returns the graph's new generation number (1 for the first
     * reload).
     */
    Expected<uint64_t> reloadGraph(uint64_t id,
                                   std::vector<TierSpec> ladder);

    /**
     * Pump mode only (workers = 0): synchronously execute up to
     * @p max_requests queued requests on the calling thread; returns
     * the number executed.
     */
    unsigned pump(unsigned max_requests = 1);

    /**
     * Graceful drain, phase 1: stop admission. Every later submit is
     * rejected with kUnavailable ("tenant_drain: ..."); queued and
     * in-flight work keeps executing (pump() in pump mode, the workers
     * in threaded mode). Idempotent; decision-logs the drain with
     * per-tenant queue depths when tenancy is enabled. Complete the
     * drain by pumping/waiting until drained(), or cut it short with
     * shutdown(), which cancels the remainder with per-tenant
     * accounting (ServerStats::drain_cancelled, TenantStats::
     * drain_cancelled).
     */
    void beginDrain();

    /** True when every admitted request has reached its terminal
     * state and had its future fulfilled. */
    bool drained() const;

    /**
     * Block until drained() or @p timeout_ns elapses (0 = one
     * immediate check); returns drained(). Threaded mode polls; in
     * pump mode time only advances when the caller pumps, so this is
     * just the check.
     */
    bool awaitDrained(uint64_t timeout_ns);

    /**
     * Stop accepting work, fail everything still queued with
     * kUnavailable, and join the workers. Idempotent; the destructor
     * calls it.
     */
    void shutdown();

    ServerStats stats() const;

    /** Decision log so far ("t=... admit seq=3 ...", one per entry). */
    std::vector<std::string> decisionLog() const;

    /** Latency histograms: serve/queue_ns, serve/exec_ns,
     * serve/total_ns. */
    MetricSet latencyMetrics() const;

    /**
     * Attach (or detach, with nullptr) a telemetry observer. Install
     * before traffic starts and detach only after the server is
     * quiescent; the observer must outlive its attachment. Not owned.
     */
    void setObserver(ServeObserver *observer)
    {
        observer_.store(observer, std::memory_order_release);
    }

    size_t queueDepth() const { return sched_.size(); }

  private:
    /** Registered graph: prepared ladder + admission state
     * (server.cc). */
    struct RegisteredGraph;

    /** The one request record every stage works on. */
    struct Pending
    {
        ServeRequest request;
        uint64_t seq = 0;
        uint64_t submit_ns = 0;
        unsigned tier = 0;
        RegisteredGraph *graph = nullptr;
        /// Scheduler lane: the dense tenant id (TenantRegistry) with
        /// tenancy on, the single lane 0 with it off.
        uint32_t tenant_id = 0;
        /// The tenant table was full: counted under the overflow key.
        bool tenant_overflow = false;
        /// Reached the queue: counted in ServerStats::admitted, holds a
        /// bulkhead slot, and keeps drained() false until its terminal
        /// response is delivered.
        bool admitted = false;
        /// Admitted as a half-open breaker probe; exactly one of
        /// onSuccess/onFailure/abandonProbe must resolve it.
        bool breaker_probe = false;
        std::promise<ServeResponse> promise;
    };

    /** Terminal responses decided under mutex_ and delivered after it
     * is released, so observer callbacks may take their own locks. */
    using Finished = std::vector<std::pair<Pending, ServeResponse>>;

    /** Per-worker liveness and cancellation rendezvous. */
    struct WorkerSlot
    {
        std::atomic<uint64_t> progress{0};   ///< token-poll heartbeat
        std::atomic<uint64_t> busy_seq{0};   ///< 0 = idle
        std::atomic<uint64_t> busy_since{0}; ///< dispatch time (ns)
        std::atomic<bool> recycle{false};    ///< backend tainted, rebuild
        std::mutex mutex;                    ///< guards active
        std::shared_ptr<CancelSource> active;

        // Owned by the executing thread (no locking needed).
        /// Lazily created second backend for hedged attempts.
        std::unique_ptr<MixGemmBackend> hedge_backend;
        unsigned health_failures = 0; ///< consecutive failed attempts
        bool quarantined = false;
        uint64_t quarantined_until_ns = 0;
    };

    /** A resolved rung: the graph to run and its pre-packed weights
     * (null without a weight store). Holding these shared_ptrs keeps
     * both alive across eviction for the duration of the request. */
    struct RungRef
    {
        std::shared_ptr<const QuantizedGraph> graph;
        std::shared_ptr<const PackedModelIndex> pack;
    };

    /** What one dispatched request executes with (server.cc). */
    struct Execution;

    std::unique_ptr<MixGemmBackend> makeBackend() const;

    /**
     * Resolve @p graph's rung @p tier, materializing a lazy rung on
     * first use (builder + weight-store load) and LRU-evicting lazy
     * rungs past the byte budget. Builds under rung_mutex_ alone, then
     * nests mutex_ to scan graphs_ and decision-log the
     * materialize/evict entries stamped @p now.
     */
    RungRef resolveRung(RegisteredGraph &graph, unsigned tier,
                        uint64_t now);

    // The four stages. Admit runs under mutex_ and moves the request
    // into the scheduler or into @p finished.
    void admitLocked(Pending &&item, Finished &finished);
    /** Assign the request's rung and apply its breaker; false when the
     * breaker fast-failed it (already moved into @p finished). */
    bool assignRungLocked(Pending &item, TenantState *tenant,
                          uint64_t now, Finished &finished);
    void enqueueLocked(Pending &&item, TenantState *tenant, uint64_t now,
                       Finished &finished);
    /** Schedule: next request in DWRR order (FIFO with tenancy off);
     * @p wait blocks until work arrives or the scheduler closes. */
    std::optional<Pending> schedule(bool wait);
    void execute(Pending item, WorkerSlot &slot, MixGemmBackend &backend,
                 int worker_index);
    void runAttempts(Execution &run, uint64_t service_macs,
                     ServeResponse &response);
    Expected<std::vector<double>> attempt(Execution &run,
                                          unsigned attempt);
    Expected<std::vector<double>> race(Execution &run, unsigned attempt,
                                       uint64_t stall_ns);
    Status stall(uint64_t stall_ns, const CancelToken &token);
    void finalize(Pending &&item, ServeResponse &&response,
                  WorkerSlot &slot, int worker_index,
                  uint64_t abft_uncorrected);
    /** Fire ServeObserver::onTerminal, fulfil the promise and count an
     * admitted request as delivered; call with mutex_ NOT held. */
    void respond(Pending &item, ServeResponse &&response);
    /** The report fields every terminal response copies from @p item. */
    static ServeResponse responseFor(const Pending &item);

    void sitOutQuarantine(WorkerSlot &slot, int worker_index);
    /** Schedule-and-execute loop of a worker (or of pump()); returns
     * the number of requests executed. */
    unsigned serve(WorkerSlot &slot,
                   std::unique_ptr<MixGemmBackend> &backend,
                   int worker_index, unsigned max_requests);
    void workerMain(unsigned index);
    void watchdogMain();

    // The following run under mutex_.
    /** Count @p bucket for @p item, log @p entry, release what the
     * request holds and queue its @p status response. */
    void rejectLocked(Pending &&item, const TerminalBucket &bucket,
                      std::string entry, Status status,
                      Finished &finished);
    /** Return the request's bulkhead slot (if admitted) and abandon a
     * breaker probe it still holds. */
    void releaseLocked(Pending &item);
    /** Breaker for @p graph's rung @p tier, created on first use. */
    CircuitBreaker &breakerLocked(RegisteredGraph &graph, unsigned tier);
    /** Feed a terminal outcome to the request's rung breaker (resolving
     * its probe); logs the state transition and maintains the
     * open-breaker gauge. */
    void recordBreakerOutcomeLocked(Pending &item, StatusCode code,
                                    uint64_t now_ns);
    void logLocked(std::string entry);
    void evaluateDegradationLocked(uint64_t now_ns);
    /** Per-tenant brownout controller: step over-share tenants' extra
     * degradation up/down from the current queue fill (tenancy only). */
    void evaluateBrownoutLocked(uint64_t now_ns);
    /** Count a dispatched request's terminal status. */
    void recordTerminalLocked(const ServeResponse &response);

    ServeObserver *observer() const
    {
        return observer_.load(std::memory_order_acquire);
    }

    ServerOptions options_;
    const Clock *clock_ = nullptr;
    std::vector<std::unique_ptr<RegisteredGraph>> graphs_;
    /// Tenant registry; null when options_.tenancy.enabled is false.
    /// Externally synchronized: accessed under mutex_.
    std::unique_ptr<TenantRegistry> tenants_;
    /// Every queued request, in per-tenant lanes (one lane with
    /// tenancy off).
    TenantScheduler<Pending> sched_;
    /// Admitted requests whose response has been delivered; drained()
    /// compares it with ServerStats::admitted.
    std::atomic<uint64_t> delivered_{0};

    /// Guards every RegisteredGraph's rung state plus the LRU pool
    /// below. Separate from mutex_ so a slow materialization cannot
    /// stall admission; when both are held, this one is taken first.
    std::mutex rung_mutex_;
    uint64_t rung_use_tick_ = 0;       ///< logical LRU clock
    uint64_t lazy_resident_bytes_ = 0; ///< pooled lazy-rung footprint
    uint64_t lazy_resident_count_ = 0;

    mutable std::mutex mutex_;
    uint64_t next_seq_ = 0;
    uint64_t decision_seq_ = 0; ///< total order over decision entries
    unsigned level_ = 0;          ///< current degradation level
    unsigned max_level_ = 0;      ///< deepest ladder registered, - 1
    uint64_t last_level_change_ns_ = 0;
    bool draining_ = false; ///< beginDrain() called; admission closed
    LogHistogram window_latency_; ///< total-latency window since change
    RetryBudget retry_budget_;    ///< global retry token bucket
    ServerStats stats_;
    MetricSet metrics_;
    std::vector<std::string> decisions_;

    std::vector<std::unique_ptr<WorkerSlot>> slots_;
    std::vector<std::thread> workers_;
    std::thread watchdog_;
    std::mutex watchdog_mutex_;
    std::condition_variable watchdog_cv_;
    bool stopping_ = false;
    std::atomic<bool> shut_down_{false};
    std::atomic<ServeObserver *> observer_{nullptr};
    std::unique_ptr<MixGemmBackend> pump_backend_;
    std::unique_ptr<WorkerSlot> pump_slot_;
};

} // namespace mixgemm

#endif // MIXGEMM_SERVE_SERVER_H
