/**
 * @file
 * Deterministic chaos plane for the serving stack.
 *
 * The ChaosEngine decides, for every execution attempt and every
 * submission, whether to inject a fault — a worker throw (exercising
 * the worker-exception path), a stall (modeled in virtual time,
 * no-heartbeat spin under the watchdog in wall mode), a transient
 * backend error (kUnavailable, exercising retries, the retry budget
 * and the circuit breakers), an arrival queue-delay or clock-skew
 * perturbation, or an artifact-load fault at the packed-weight store.
 *
 * Determinism contract (same as the PR 4 fault injector): every
 * decision is a pure function of the engine seed and the *logical*
 * coordinates of the event — (request seq, attempt) for execution
 * faults, request seq for submission perturbations, load index for
 * store faults — never of thread timing or execution order. Each
 * decision seeds a private Rng from those coordinates and draws its
 * probabilities in a fixed order, so two same-seed soaks inject
 * byte-identical fault schedules regardless of interleaving, and the
 * server logs every applied event into the decision log.
 *
 * The scenario's @ref ChaosScenario::inject_until_ns window lets a
 * soak stop injecting partway through the run, which is how the
 * breaker-recovery acceptance scenario (fail hard, then heal) is
 * scripted.
 */

#ifndef MIXGEMM_SERVE_CHAOS_H
#define MIXGEMM_SERVE_CHAOS_H

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "serve/resilience.h"

namespace mixgemm
{

/** One chaos scenario: per-event probabilities and targeting. */
struct ChaosScenario
{
    std::string name = "off";

    // Execution-attempt faults (drawn per (seq, attempt)).
    double throw_prob = 0.0;     ///< worker throws -> kInternal
    double stall_prob = 0.0;     ///< stall (modeled / watchdog path)
    uint64_t stall_ns = 10'000'000;
    double transient_prob = 0.0; ///< kUnavailable backend error
    /** Restrict execution faults to one ladder rung (-1 = all). The
     * persistently-failing-rung scenario targets rung 0. */
    int target_tier = -1;

    // Submission perturbations (drawn per seq; virtual-time only).
    double queue_delay_prob = 0.0;
    uint64_t queue_delay_ns = 0;
    double clock_skew_prob = 0.0;
    uint64_t clock_skew_ns = 0;

    // Weight-store faults (drawn per artifact-load index).
    double store_fault_prob = 0.0;

    /** Injection window: events stop once now_ns reaches this (0 =
     * inject for the whole run). */
    uint64_t inject_until_ns = 0;
};

/** What to do to one execution attempt. */
struct ChaosAttemptPlan
{
    enum class Action
    {
        kNone,
        kThrow,
        kStall,
        kTransient
    };
    Action action = Action::kNone;
    uint64_t stall_ns = 0; ///< for kStall
    /// A stall_ns that only ends when the attempt is cancelled (by the
    /// watchdog or a deadline); for threaded servers only.
    static constexpr uint64_t kUntilCancelled = UINT64_MAX;
};

/** Submission-time perturbation for one request. */
struct ChaosSubmitPlan
{
    uint64_t delay_ns = 0; ///< queue-delay before admission
    uint64_t skew_ns = 0;  ///< clock skew applied to the virtual clock
};

/** Applied-event counters (read via ChaosEngine::counts()). */
struct ChaosCounts
{
    uint64_t throws = 0;
    uint64_t stalls = 0;
    uint64_t transients = 0;
    uint64_t arrival_delays = 0;
    uint64_t clock_skews = 0;
    uint64_t store_faults = 0;

    uint64_t total() const
    {
        return throws + stalls + transients + arrival_delays +
               clock_skews + store_faults;
    }
};

/** See the file comment. Thread-safe; planning is side-effect free
 * except for the applied-event counters the server bumps. */
class ChaosEngine
{
  public:
    ChaosEngine(uint64_t seed, ChaosScenario scenario);
    virtual ~ChaosEngine() = default;

    const ChaosScenario &scenario() const { return scenario_; }
    uint64_t seed() const { return seed_; }

    /** Whether any event kind has nonzero probability. */
    bool enabled() const;

    /** Whether the injection window is still open at @p now_ns. */
    bool active(uint64_t now_ns) const;

    /** Pin the window's origin so inject_until_ns measures time since
     * the serving run started, not absolute clock reading. The server
     * arms this from its clock at construction; under a VirtualClock
     * that is 0 (no behavior change), under the wall clock it is the
     * steady-clock reading — without it a windowed scenario would
     * compare a relative window against absolute nanoseconds and
     * never fire. First call wins; later calls are ignored. */
    void armEpoch(uint64_t now_ns);

    /** Fault plan for attempt @p attempt (1-based) of request
     * @p seq executing rung @p tier. Pure function of
     * (seed, seq, attempt) gated by tier targeting and the window.
     * This is the server's single fault seam: tests and serve-soak
     * --inject-stall override it with a scripted planner. */
    virtual ChaosAttemptPlan planAttempt(uint64_t seq, unsigned attempt,
                                         unsigned tier,
                                         uint64_t now_ns) const;

    /** Submission perturbation for request @p seq. */
    ChaosSubmitPlan planSubmit(uint64_t seq, uint64_t now_ns) const;

    /** Whether artifact load @p load_index should fail (corrupt-map
     * injection; the store self-heals by re-packing). */
    bool planStoreFault(uint64_t load_index) const;

    // Applied-event accounting (bumped by the code that applies the
    // plan, so counts reflect injected — not merely planned — events).
    void noteThrow() { ++throws_; }
    void noteStall() { ++stalls_; }
    void noteTransient() { ++transients_; }
    void noteArrivalDelay() { ++arrival_delays_; }
    void noteClockSkew() { ++clock_skews_; }
    void noteStoreFault() { ++store_faults_; }

    ChaosCounts counts() const;

  private:
    uint64_t seed_;
    ChaosScenario scenario_;
    uint64_t epoch_ns_ = 0;
    bool epoch_armed_ = false;
    std::atomic<uint64_t> throws_{0};
    std::atomic<uint64_t> stalls_{0};
    std::atomic<uint64_t> transients_{0};
    std::atomic<uint64_t> arrival_delays_{0};
    std::atomic<uint64_t> clock_skews_{0};
    std::atomic<uint64_t> store_faults_{0};
};

/**
 * A named scenario bundled with the resilience configuration it is
 * meant to exercise (soak harness and CLI use these).
 */
struct ChaosProfile
{
    ChaosScenario scenario;
    BreakerOptions breaker;
    RetryBudgetOptions retry_budget;
    HedgeOptions hedge;
    HealthOptions health;
};

/**
 * Built-in scenarios, parameterized by the run duration:
 *   rung-failure   rung 0 fails every attempt for the first 40 % of
 *                  the run (breaker opens, fast-fails, then half-open
 *                  probes close it after injection stops)
 *   flaky-backend  sparse transient errors + rare worker throws
 *   storm          queue delays, clock skew, and transient errors
 *   stall-hedge    long stalls with hedged requests winning
 *   stall-crash    stalls + throws with backend quarantine armed
 */
Expected<ChaosProfile> chaosProfileByName(const std::string &name,
                                          uint64_t duration_ns);

/** Names accepted by chaosProfileByName, comma-separated (usage text). */
std::string chaosScenarioNames();

} // namespace mixgemm

#endif // MIXGEMM_SERVE_CHAOS_H
