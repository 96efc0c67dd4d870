#include "serve/ladder.h"

#include <exception>

#include "common/logging.h"
#include "store/store.h"

namespace mixgemm
{

namespace
{

/**
 * Dry-run backend for ladder preparation: produces all-zero
 * accumulators (enough to propagate shapes through the graph) while
 * summing a precision-weighted MAC count, m*n*k*bwa*bwb — narrower
 * operands pack more elements per μ-vector, so a coarser ladder rung
 * must model as proportionally *faster* in virtual time (that speedup
 * is the entire point of degrading). The unit is "8x8-equivalent MACs"
 * after dividing by 64.
 */
class MacCountingBackend final : public GemmBackend
{
  public:
    std::vector<int64_t> gemm(std::span<const int32_t>,
                              std::span<const int32_t>, uint64_t m,
                              uint64_t n, uint64_t k,
                              const DataSizeConfig &config) override
    {
        cost_ += m * n * k * config.bwa * config.bwb;
        raw_ += m * n * k;
        return std::vector<int64_t>(m * n, 0);
    }

    std::string name() const override { return "mac-counting"; }

    /** Modeled cost in 8x8-equivalent MACs. */
    uint64_t equivalentMacs() const { return cost_ / 64; }

    /** Unweighted m*n*k sum — the base the analytic lazy-rung cost
     * model scales by a_bits * w_bits / 64. */
    uint64_t rawMacs() const { return raw_; }

  private:
    uint64_t cost_ = 0;
    uint64_t raw_ = 0;
};

} // namespace

std::shared_ptr<const PackedModelIndex>
loadPackedIndex(PackedWeightStore *store, const QuantizedGraph &graph,
                const std::string &context, uint64_t *packed_bytes)
{
    if (!store)
        return nullptr;
    auto model = store->load(graph);
    if (!model.ok()) {
        warn(strCat(context, ": ", model.status().toString()));
        return nullptr;
    }
    auto index = PackedModelIndex::build(*model, graph);
    if (!index.ok()) {
        warn(strCat(context, ": ", index.status().toString()));
        return nullptr;
    }
    // Panel payload bytes, not mapping bytes: the value is identical
    // for a cold pack and a warm mmap load, keeping decision logs
    // reproducible across cache states.
    if (packed_bytes)
        *packed_bytes = (*model)->packed_bytes;
    return *index;
}

Expected<PreparedLadder>
prepareLadder(const std::string &caller, std::vector<TierSpec> ladder,
              const std::vector<size_t> &input_shape,
              PackedWeightStore *store)
{
    if (ladder.empty())
        return Status::invalidArgument(strCat(caller, ": empty ladder"));
    if (input_shape.empty())
        return Status::invalidArgument(
            strCat(caller, ": empty input shape"));
    for (const size_t dim : input_shape)
        if (dim == 0 || dim > (1u << 16))
            return Status::invalidArgument(strCat(
                caller, ": input dimension ", dim, " out of range"));
    if (ladder[0].lazy())
        return Status::invalidArgument(
            strCat(caller, ": rung 0 must be eager — it is the "
                   "always-available fallback and calibrates the "
                   "virtual-time cost model"));
    for (size_t t = 0; t < ladder.size(); ++t) {
        if (ladder[t].lazy() &&
            (ladder[t].a_bits < 2 || ladder[t].a_bits > 8 ||
             ladder[t].w_bits < 2 || ladder[t].w_bits > 8))
            return Status::invalidArgument(
                strCat(caller, " tier ", t, ": lazy-rung precision a",
                       ladder[t].a_bits, "-w", ladder[t].w_bits,
                       " outside the supported [2, 8]"));
    }

    // The dry run catches a ladder/shape mismatch here, where the
    // operator can act on it, instead of at the first request.
    PreparedLadder prepared;
    const size_t rung_count = ladder.size();
    prepared.rungs.resize(rung_count);
    prepared.rung_packs.resize(rung_count);
    prepared.rung_bytes.assign(rung_count, 0);
    prepared.rung_last_use.assign(rung_count, 0);
    Tensor<double> probe(input_shape);
    for (size_t t = 0; t < rung_count; ++t) {
        TierSpec &tier = ladder[t];
        if (tier.lazy()) {
            prepared.tier_macs.push_back(prepared.raw_macs * tier.a_bits *
                                         tier.w_bits / 64);
            continue;
        }
        MacCountingBackend counter;
        try {
            Expected<std::vector<double>> out =
                tier.graph.tryRun(probe, counter);
            if (!out.ok())
                return out.status();
        } catch (const std::exception &e) {
            return Status::invalidArgument(
                strCat(caller, " tier ", t, " ('", tier.label,
                       "') rejects the input shape: ", e.what()));
        }
        prepared.tier_macs.push_back(counter.equivalentMacs());
        if (t == 0)
            prepared.raw_macs = counter.rawMacs();
        auto resident =
            std::make_shared<const QuantizedGraph>(std::move(tier.graph));
        tier.graph = QuantizedGraph();
        prepared.rung_packs[t] = loadPackedIndex(
            store, *resident, strCat(caller, " tier ", t));
        prepared.rungs[t] = std::move(resident);
    }
    prepared.ladder = std::move(ladder);
    return prepared;
}

std::vector<TierSpec>
buildPrecisionLadder(
    Network &network, const PatternDataset &calibration,
    const std::vector<std::pair<unsigned, unsigned>> &precisions,
    PtqOptions base)
{
    if (precisions.empty())
        fatal("buildPrecisionLadder: no precisions requested");
    std::vector<TierSpec> ladder;
    ladder.reserve(precisions.size());
    for (const auto &[a_bits, w_bits] : precisions) {
        PtqOptions options = base;
        options.a_bits = a_bits;
        options.w_bits = w_bits;
        TierSpec tier;
        tier.graph = buildPtqGraph(network, calibration, options);
        tier.label = strCat("a", a_bits, "-w", w_bits);
        ladder.push_back(std::move(tier));
    }
    return ladder;
}

std::vector<TierSpec>
buildLazyPrecisionLadder(
    Network &network, const PatternDataset &calibration,
    const std::vector<std::pair<unsigned, unsigned>> &precisions,
    PtqOptions base)
{
    if (precisions.empty())
        fatal("buildLazyPrecisionLadder: no precisions requested");
    std::vector<TierSpec> ladder;
    ladder.reserve(precisions.size());
    for (size_t i = 0; i < precisions.size(); ++i) {
        const auto [a_bits, w_bits] = precisions[i];
        PtqOptions options = base;
        options.a_bits = a_bits;
        options.w_bits = w_bits;
        TierSpec tier;
        tier.label = strCat("a", a_bits, "-w", w_bits);
        tier.a_bits = a_bits;
        tier.w_bits = w_bits;
        if (i == 0) {
            // The fallback rung every request can always run at.
            tier.graph = buildPtqGraph(network, calibration, options);
        } else {
            // PTQ is deterministic for fixed inputs, so an evicted
            // rung rebuilt by this closure is bitwise-identical to the
            // original — the serve determinism tests rely on it.
            tier.build = [&network, &calibration, options] {
                return buildPtqGraph(network, calibration, options);
            };
        }
        ladder.push_back(std::move(tier));
    }
    return ladder;
}

} // namespace mixgemm
