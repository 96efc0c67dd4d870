#include "serve/soak.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "common/logging.h"
#include "common/random.h"
#include "serve/ladder.h"
#include "trace/json.h"

namespace mixgemm
{

namespace
{

/** Offered arrival rate at scenario time @p t_s (burst windows repeat
 * every burst_every_s). */
double
arrivalRate(const SoakConfig &config, double t_s)
{
    if (config.burst_every_s <= 0.0 || config.burst_len_s <= 0.0 ||
        config.burst_factor <= 1.0)
        return config.arrival_hz;
    const double phase = std::fmod(t_s, config.burst_every_s);
    return phase < config.burst_len_s
               ? config.arrival_hz * config.burst_factor
               : config.arrival_hz;
}

/** Exponential inter-arrival draw (Poisson process) at @p rate_hz. */
uint64_t
drawInterarrivalNs(Rng &rng, double rate_hz)
{
    const double u = rng.uniformReal(); // [0, 1)
    const double dt_s = -std::log1p(-u) / rate_hz;
    const double dt_ns = dt_s * 1e9;
    return dt_ns < 1.0 ? 1 : static_cast<uint64_t>(dt_ns);
}

ServeRequest
makeRequest(const SoakConfig &config, Rng &rng, uint64_t graph_id,
            const std::vector<Tensor<double>> &inputs, uint64_t now_ns,
            const std::vector<std::pair<std::string, double>> &mix)
{
    ServeRequest request;
    request.graph_id = graph_id;
    request.priority = static_cast<int>(rng.uniformInt(
        0, std::max(1, config.priority_levels) - 1));
    if (!mix.empty()) {
        // Tenant scenario: draw from the scenario's arrival mix (one
        // rng draw, mirroring the uniform path below).
        double total = 0.0;
        for (const auto &[name, share] : mix)
            total += share;
        double u = rng.uniformReal() * total;
        request.tenant = mix.back().first;
        for (const auto &[name, share] : mix) {
            if (u < share) {
                request.tenant = name;
                break;
            }
            u -= share;
        }
    } else if (config.tenants > 1) {
        request.tenant = strCat(
            "tenant", rng.uniformInt(0, config.tenants - 1));
    }
    if (rng.uniformReal() >= config.no_deadline_prob) {
        // Log-uniform deadline budget: most requests tight, a tail
        // generous — stresses both the expiry and the success path.
        const double lo = std::log(config.deadline_lo_s);
        const double hi = std::log(config.deadline_hi_s);
        const double budget_s = std::exp(rng.uniformReal(lo, hi));
        request.deadline_ns =
            now_ns + static_cast<uint64_t>(budget_s * 1e9);
    }
    // Adversarial arrivals: admission must bounce these without
    // disturbing service for everyone else.
    const double adversarial = rng.uniformReal();
    if (adversarial < config.bad_graph_prob) {
        request.graph_id = graph_id + 1000;
        request.input = inputs[0];
    } else if (adversarial <
               config.bad_graph_prob + config.oversized_prob) {
        request.input = Tensor<double>(
            {1, 1, 2 * PatternDataset::kImageSize,
             2 * PatternDataset::kImageSize});
    } else {
        request.input = inputs[static_cast<size_t>(rng.uniformInt(
            0, static_cast<int64_t>(inputs.size()) - 1))];
    }
    return request;
}

/**
 * --inject-stall: wedges the first attempt any worker plans in a
 * no-heartbeat stall until the watchdog cancels it; every other
 * attempt follows the run's chaos scenario ("off" without --chaos).
 */
class StallFirstAttempt final : public ChaosEngine
{
  public:
    using ChaosEngine::ChaosEngine;

    ChaosAttemptPlan planAttempt(uint64_t seq, unsigned attempt,
                                 unsigned tier,
                                 uint64_t now_ns) const override
    {
        if (!stalled_.exchange(true))
            return {ChaosAttemptPlan::Action::kStall,
                    ChaosAttemptPlan::kUntilCancelled};
        return ChaosEngine::planAttempt(seq, attempt, tier, now_ns);
    }

  private:
    mutable std::atomic<bool> stalled_{false};
};

void
appendHistogramJson(std::ostringstream &os, const char *name,
                    const LogHistogram &h, bool last)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"count\":%llu,\"mean\":%.1f,\"p50\":%.1f,"
                  "\"p95\":%.1f,\"p99\":%.1f,\"max\":%llu}%s",
                  name, static_cast<unsigned long long>(h.count()),
                  h.mean(), h.percentile(50.0), h.percentile(95.0),
                  h.percentile(99.0),
                  static_cast<unsigned long long>(h.max()),
                  last ? "" : ",");
    os << buf;
}

} // namespace

uint64_t
hashDecisionLog(const std::vector<std::string> &log)
{
    uint64_t hash = 1469598103934665603ull; // FNV-1a offset basis
    const auto mix = [&hash](char c) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    };
    for (const std::string &line : log) {
        for (const char c : line)
            mix(c);
        mix('\n');
    }
    return hash;
}

SoakResult
runServeSoak(const SoakConfig &config)
{
    // --- Model under test: the small CNN, briefly trained, quantized
    // into a precision ladder. Everything is seeded; the model build is
    // identical across same-seed runs.
    const PatternDataset calib(96, /*seed=*/config.seed ^ 0x5eedu);
    Network network = makeSmallCnn(QatConfig{false, 8, 8}, 42);
    TrainConfig train_config;
    train_config.epochs = std::max(1u, config.train_epochs);
    train(network, calib, train_config);

    std::vector<std::pair<unsigned, unsigned>> precisions =
        defaultLadderPrecisions();
    const unsigned tiers = std::clamp<unsigned>(
        config.ladder_tiers, 1,
        static_cast<unsigned>(precisions.size()));
    precisions.resize(tiers);
    PtqOptions ptq;
    ptq.calibration_samples = 32;
    ptq.bias_correction = false;
    std::vector<TierSpec> ladder =
        buildPrecisionLadder(network, calib, precisions, ptq);

    std::vector<Tensor<double>> inputs;
    for (size_t i = 0; i < 32 && i < calib.size(); ++i)
        inputs.push_back(calib.samples()[i].image);

    // --- Server.
    const uint64_t duration_ns =
        static_cast<uint64_t>(config.duration_s * 1e9);
    VirtualClock vclock;
    // The chaos engine must outlive the server (declared first so it is
    // destroyed last); the fault schedule seed derives from the soak
    // seed, keeping the injected events inside the same determinism
    // contract as arrivals.
    std::unique_ptr<ChaosEngine> chaos;
    ChaosProfile profile;
    if (!config.chaos_scenario.empty()) {
        Expected<ChaosProfile> looked_up =
            chaosProfileByName(config.chaos_scenario, duration_ns);
        if (!looked_up.ok())
            fatal(strCat("serve-soak: ",
                         looked_up.status().toString()));
        profile = std::move(*looked_up);
    }
    const uint64_t chaos_seed = config.seed ^ 0xc4a05c4a05ull;
    if (config.inject_stall && !config.virtual_time)
        chaos = std::make_unique<StallFirstAttempt>(chaos_seed,
                                                    profile.scenario);
    else if (!config.chaos_scenario.empty())
        chaos = std::make_unique<ChaosEngine>(chaos_seed,
                                              profile.scenario);
    // Tenancy plane: a named scenario supplies both the policies and
    // the arrival mix; otherwise config.tenancy is used verbatim.
    TenancyOptions tenancy = config.tenancy;
    std::vector<std::pair<std::string, double>> arrival_mix;
    if (!config.tenant_scenario.empty()) {
        Expected<TenantScenario> scenario =
            tenantScenarioByName(config.tenant_scenario);
        if (!scenario.ok())
            fatal(strCat("serve-soak: ",
                         scenario.status().toString()));
        tenancy = scenario->options;
        arrival_mix = scenario->arrival_mix;
    }
    ServerOptions options;
    options.workers = config.virtual_time ? 0 : config.wall_workers;
    options.queue_capacity = config.queue_capacity;
    options.backend_threads = config.backend_threads;
    options.kernel_mode = config.kernel_mode;
    options.degradation = config.degradation;
    options.max_retries = config.max_retries;
    options.watchdog_timeout_ns = config.watchdog_timeout_ns;
    options.session = config.session;
    options.tenancy = tenancy;
    if (config.virtual_time) {
        options.virtual_clock = &vclock;
        options.virtual_ns_per_mac = config.virtual_ns_per_mac;
    }
    options.chaos = chaos.get();
    if (chaos) {
        options.breaker = profile.breaker;
        options.retry_budget = profile.retry_budget;
        options.hedge = profile.hedge;
        options.health = profile.health;
    }
    if (config.inject_stall && !config.virtual_time) {
        // Clamp the watchdog so the postmortem fires well inside the
        // run; the engine wedges the first attempt.
        options.watchdog_timeout_ns = std::min<uint64_t>(
            options.watchdog_timeout_ns, 250'000'000);
        options.watchdog_poll_ns =
            std::min<uint64_t>(options.watchdog_poll_ns, 20'000'000);
    }
    InferenceServer server(options);
    Expected<uint64_t> graph_id = server.registerGraph(
        "smallcnn", std::move(ladder),
        {1, 1, PatternDataset::kImageSize, PatternDataset::kImageSize});
    if (!graph_id.ok())
        fatal(strCat("serve-soak: ", graph_id.status().toString()));
    if (config.on_server_start)
        config.on_server_start(server);

    Rng rng(config.seed);
    std::vector<std::future<ServeResponse>> futures;
    SoakResult result;
    result.config = config;
    result.config.tenancy = tenancy; // reflect a resolved scenario

    if (config.virtual_time) {
        // Discrete-event loop: the only events are arrivals (scripted
        // by the seeded Poisson process) and service completions (the
        // pump advances the clock by the modeled service time), so the
        // entire schedule is a pure function of the seed.
        const uint64_t end_ns = duration_ns;
        uint64_t next_arrival = drawInterarrivalNs(
            rng, arrivalRate(config, 0.0));
        uint64_t free_at = 0;
        bool drain_begun = false;
        while (true) {
            const bool have_arrival = next_arrival <= end_ns;
            if (!have_arrival && config.graceful_drain &&
                !drain_begun) {
                // Offered-load window closed: stop admission and let
                // the remaining queued work pump out.
                server.beginDrain();
                drain_begun = true;
            }
            const size_t depth = server.queueDepth();
            if (!have_arrival && depth == 0)
                break;
            const uint64_t service_at =
                depth > 0 ? std::max(free_at, vclock.nowNs())
                          : UINT64_MAX;
            if (have_arrival && next_arrival <= service_at) {
                vclock.advanceToNs(next_arrival);
                futures.push_back(server.submit(
                    makeRequest(config, rng, *graph_id, inputs,
                                next_arrival, arrival_mix)));
                next_arrival += drawInterarrivalNs(
                    rng, arrivalRate(config,
                                     static_cast<double>(next_arrival) /
                                         1e9));
            } else {
                vclock.advanceToNs(service_at);
                server.pump(1);
                free_at = vclock.nowNs();
            }
        }
        result.elapsed_s = static_cast<double>(vclock.nowNs()) / 1e9;
    } else {
        MonotonicClock &clock = MonotonicClock::instance();
        const uint64_t start = clock.nowNs();
        const uint64_t end = start + duration_ns;
        uint64_t next = start + drawInterarrivalNs(
                                    rng, arrivalRate(config, 0.0));
        while (next <= end) {
            const uint64_t now = clock.nowNs();
            if (next > now)
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(next - now));
            const uint64_t at = std::max(next, clock.nowNs());
            futures.push_back(server.submit(
                makeRequest(config, rng, *graph_id, inputs, at,
                            arrival_mix)));
            next += drawInterarrivalNs(
                rng, arrivalRate(config,
                                 static_cast<double>(at - start) / 1e9));
        }
        if (config.graceful_drain) {
            server.beginDrain();
            server.awaitDrained(duration_ns);
        }
        for (std::future<ServeResponse> &f : futures)
            f.wait();
        result.elapsed_s =
            static_cast<double>(clock.nowNs() - start) / 1e9;
    }

    if (config.on_server_drained)
        config.on_server_drained(server);
    result.stats = server.stats();
    result.latencies = server.latencyMetrics();
    result.decision_log = server.decisionLog();
    result.decision_hash = hashDecisionLog(result.decision_log);
    if (chaos)
        result.chaos = chaos->counts();
    result.goodput_rps =
        result.elapsed_s > 0.0
            ? static_cast<double>(result.stats.completed_ok) /
                  result.elapsed_s
            : 0.0;
    server.shutdown();
    return result;
}

std::string
SoakResult::toJson() const
{
    std::ostringstream os;
    char buf[512];
    os << "{\n";
    std::snprintf(
        buf, sizeof(buf),
        "\"config\":{\"seed\":%llu,\"duration_s\":%.3f,"
        "\"arrival_hz\":%.1f,\"burst_factor\":%.1f,"
        "\"queue_capacity\":%zu,\"virtual_time\":%s,"
        "\"wall_workers\":%u,\"ladder_tiers\":%u,\"tenants\":%u,"
        "\"inject_stall\":%s,\"chaos_scenario\":\"%s\","
        "\"tenant_scenario\":\"%s\",\"tenancy_enabled\":%s,"
        "\"graceful_drain\":%s},\n",
        static_cast<unsigned long long>(config.seed), config.duration_s,
        config.arrival_hz, config.burst_factor, config.queue_capacity,
        config.virtual_time ? "true" : "false", config.wall_workers,
        config.ladder_tiers, config.tenants,
        config.inject_stall ? "true" : "false",
        config.chaos_scenario.c_str(), config.tenant_scenario.c_str(),
        config.tenancy.enabled ? "true" : "false",
        config.graceful_drain ? "true" : "false");
    os << buf;
    std::snprintf(
        buf, sizeof(buf),
        "\"stats\":{\"submitted\":%llu,\"admitted\":%llu,"
        "\"completed_ok\":%llu,\"rejected_full\":%llu,"
        "\"rejected_invalid\":%llu,\"shed\":%llu,"
        "\"expired_submit\":%llu,\"expired_queue\":%llu,"
        "\"deadline_exceeded\":%llu,\"cancelled\":%llu,"
        "\"failed\":%llu,\"retries\":%llu,\"degrade_steps\":%llu,"
        "\"recover_steps\":%llu,\"watchdog_cancels\":%llu,"
        "\"final_level\":%u,",
        static_cast<unsigned long long>(stats.submitted),
        static_cast<unsigned long long>(stats.admitted),
        static_cast<unsigned long long>(stats.completed_ok),
        static_cast<unsigned long long>(stats.rejected_full),
        static_cast<unsigned long long>(stats.rejected_invalid),
        static_cast<unsigned long long>(stats.shed),
        static_cast<unsigned long long>(stats.expired_submit),
        static_cast<unsigned long long>(stats.expired_queue),
        static_cast<unsigned long long>(stats.deadline_exceeded),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.retries),
        static_cast<unsigned long long>(stats.degrade_steps),
        static_cast<unsigned long long>(stats.recover_steps),
        static_cast<unsigned long long>(stats.watchdog_cancels),
        stats.degradation_level);
    os << buf << "\"completed_by_tier\":[";
    for (size_t t = 0; t < stats.completed_by_tier.size(); ++t)
        os << (t ? "," : "") << stats.completed_by_tier[t];
    os << "],\"by_priority\":{";
    bool first_class = true;
    for (const auto &[priority, cls] : stats.by_priority) {
        os << (first_class ? "" : ",");
        first_class = false;
        std::snprintf(
            buf, sizeof(buf),
            "\"%d\":{\"submitted\":%llu,\"completed_ok\":%llu,"
            "\"shed\":%llu,\"rejected_full\":%llu,"
            "\"rejected_invalid\":%llu,\"rejected_closed\":%llu,"
            "\"rejected_quota\":%llu,\"rejected_draining\":%llu,"
            "\"expired_submit\":%llu,\"expired_queue\":%llu,"
            "\"deadline_exceeded\":%llu,\"cancelled\":%llu,"
            "\"failed\":%llu,\"degraded\":%llu}",
            priority, static_cast<unsigned long long>(cls.submitted),
            static_cast<unsigned long long>(cls.completed_ok),
            static_cast<unsigned long long>(cls.shed),
            static_cast<unsigned long long>(cls.rejected_full),
            static_cast<unsigned long long>(cls.rejected_invalid),
            static_cast<unsigned long long>(cls.rejected_closed),
            static_cast<unsigned long long>(cls.rejected_quota),
            static_cast<unsigned long long>(cls.rejected_draining),
            static_cast<unsigned long long>(cls.expired_submit),
            static_cast<unsigned long long>(cls.expired_queue),
            static_cast<unsigned long long>(cls.deadline_exceeded),
            static_cast<unsigned long long>(cls.cancelled),
            static_cast<unsigned long long>(cls.failed),
            static_cast<unsigned long long>(cls.degraded));
        os << buf;
    }
    os << "}},\n";

    std::snprintf(
        buf, sizeof(buf),
        "\"tenancy\":{\"enabled\":%s,\"draining\":%s,"
        "\"tenant_count\":%llu,\"rejected_rate\":%llu,"
        "\"rejected_bulkhead\":%llu,\"rejected_tenant_limit\":%llu,"
        "\"rejected_draining\":%llu,\"brownout_steps\":%llu,"
        "\"brownout_clears\":%llu,\"priority_clamps\":%llu,"
        "\"drain_cancelled\":%llu,\"by_tenant\":{",
        config.tenancy.enabled ? "true" : "false",
        stats.draining ? "true" : "false",
        static_cast<unsigned long long>(stats.tenant_count),
        static_cast<unsigned long long>(stats.rejected_rate),
        static_cast<unsigned long long>(stats.rejected_bulkhead),
        static_cast<unsigned long long>(stats.rejected_tenant_limit),
        static_cast<unsigned long long>(stats.rejected_draining),
        static_cast<unsigned long long>(stats.brownout_steps),
        static_cast<unsigned long long>(stats.brownout_clears),
        static_cast<unsigned long long>(stats.priority_clamps),
        static_cast<unsigned long long>(stats.drain_cancelled));
    os << buf;
    bool first_tenant = true;
    for (const auto &[name, ten] : stats.by_tenant) {
        os << (first_tenant ? "" : ",");
        first_tenant = false;
        char tbuf[1024];
        std::snprintf(
            tbuf, sizeof(tbuf),
            "\"%s\":{\"submitted\":%llu,\"admitted\":%llu,"
            "\"completed_ok\":%llu,\"shed\":%llu,"
            "\"rejected_full\":%llu,\"rejected_invalid\":%llu,"
            "\"rejected_closed\":%llu,\"rejected_rate\":%llu,"
            "\"rejected_bulkhead\":%llu,\"rejected_limit\":%llu,"
            "\"rejected_draining\":%llu,\"expired_submit\":%llu,"
            "\"expired_queue\":%llu,\"deadline_exceeded\":%llu,"
            "\"cancelled\":%llu,\"failed\":%llu,\"degraded\":%llu,"
            "\"retries\":%llu,\"brownout_steps\":%llu,"
            "\"brownout_clears\":%llu,\"priority_clamps\":%llu,"
            "\"drain_cancelled\":%llu,\"brownout_level\":%u,"
            "\"weight\":%u,\"goodput_rps\":%.3f}",
            jsonEscape(name).c_str(),
            static_cast<unsigned long long>(ten.submitted),
            static_cast<unsigned long long>(ten.admitted),
            static_cast<unsigned long long>(ten.completed_ok),
            static_cast<unsigned long long>(ten.shed),
            static_cast<unsigned long long>(ten.rejected_full),
            static_cast<unsigned long long>(ten.rejected_invalid),
            static_cast<unsigned long long>(ten.rejected_closed),
            static_cast<unsigned long long>(ten.rejected_rate),
            static_cast<unsigned long long>(ten.rejected_bulkhead),
            static_cast<unsigned long long>(ten.rejected_limit),
            static_cast<unsigned long long>(ten.rejected_draining),
            static_cast<unsigned long long>(ten.expired_submit),
            static_cast<unsigned long long>(ten.expired_queue),
            static_cast<unsigned long long>(ten.deadline_exceeded),
            static_cast<unsigned long long>(ten.cancelled),
            static_cast<unsigned long long>(ten.failed),
            static_cast<unsigned long long>(ten.degraded),
            static_cast<unsigned long long>(ten.retries),
            static_cast<unsigned long long>(ten.brownout_steps),
            static_cast<unsigned long long>(ten.brownout_clears),
            static_cast<unsigned long long>(ten.priority_clamps),
            static_cast<unsigned long long>(ten.drain_cancelled),
            ten.brownout_level, ten.weight,
            elapsed_s > 0.0
                ? static_cast<double>(ten.completed_ok) / elapsed_s
                : 0.0);
        os << tbuf;
    }
    os << "}},\n";

    std::snprintf(
        buf, sizeof(buf),
        "\"resilience\":{\"breaker_open_events\":%llu,"
        "\"breaker_reopen_events\":%llu,\"breaker_close_events\":%llu,"
        "\"breaker_probes\":%llu,\"breaker_fast_fails\":%llu,"
        "\"breakers_open\":%llu,\"retry_budget_denied\":%llu,"
        "\"retry_budget_level\":%.3f,\"hedges_launched\":%llu,"
        "\"hedge_wins\":%llu,\"backend_quarantines\":%llu,"
        "\"backend_recoveries\":%llu,\"graph_reloads\":%llu,",
        static_cast<unsigned long long>(stats.breaker_open_events),
        static_cast<unsigned long long>(stats.breaker_reopen_events),
        static_cast<unsigned long long>(stats.breaker_close_events),
        static_cast<unsigned long long>(stats.breaker_probes),
        static_cast<unsigned long long>(stats.breaker_fast_fails),
        static_cast<unsigned long long>(stats.breakers_open),
        static_cast<unsigned long long>(stats.retry_budget_denied),
        stats.retry_budget_level,
        static_cast<unsigned long long>(stats.hedges_launched),
        static_cast<unsigned long long>(stats.hedge_wins),
        static_cast<unsigned long long>(stats.backend_quarantines),
        static_cast<unsigned long long>(stats.backend_recoveries),
        static_cast<unsigned long long>(stats.graph_reloads));
    os << buf;
    std::snprintf(
        buf, sizeof(buf),
        "\"chaos_events\":%llu,\"chaos\":{\"throws\":%llu,"
        "\"stalls\":%llu,\"transients\":%llu,\"arrival_delays\":%llu,"
        "\"clock_skews\":%llu,\"store_faults\":%llu}},\n",
        static_cast<unsigned long long>(stats.chaos_events),
        static_cast<unsigned long long>(chaos.throws),
        static_cast<unsigned long long>(chaos.stalls),
        static_cast<unsigned long long>(chaos.transients),
        static_cast<unsigned long long>(chaos.arrival_delays),
        static_cast<unsigned long long>(chaos.clock_skews),
        static_cast<unsigned long long>(chaos.store_faults));
    os << buf;

    os << "\"latency_ns\":{";
    const std::map<std::string, LogHistogram> &all = latencies.all();
    static const LogHistogram kEmpty;
    const auto histogram = [&all](const char *name) -> const LogHistogram & {
        const auto it = all.find(name);
        return it == all.end() ? kEmpty : it->second;
    };
    appendHistogramJson(os, "queue", histogram("serve/queue_ns"), false);
    appendHistogramJson(os, "exec", histogram("serve/exec_ns"), false);
    appendHistogramJson(os, "total", histogram("serve/total_ns"), true);
    os << "},\n";

    std::snprintf(buf, sizeof(buf),
                  "\"elapsed_s\":%.6f,\n\"goodput_rps\":%.3f,\n"
                  "\"decision_count\":%zu,\n"
                  "\"decision_hash\":\"0x%016llx\"",
                  elapsed_s, goodput_rps, decision_log.size(),
                  static_cast<unsigned long long>(decision_hash));
    os << buf;
    if (config.emit_decision_log) {
        os << ",\n\"decision_log\":[";
        for (size_t i = 0; i < decision_log.size(); ++i)
            os << (i ? ",\n" : "\n") << '"'
               << jsonEscape(decision_log[i]) << '"';
        os << "]";
    }
    os << "\n}\n";
    return os.str();
}

} // namespace mixgemm
