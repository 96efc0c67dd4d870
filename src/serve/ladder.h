/**
 * @file
 * Precision-ladder construction for the serving runtime.
 *
 * The degradation policy (see server.h) trades accuracy for throughput
 * by stepping down a ladder of pre-quantized variants of the same
 * network — the paper's mixed-precision design point space, applied at
 * run time. This helper builds that ladder once at registration time
 * with the PTQ pipeline: one calibrated QuantizedGraph per requested
 * (activation, weight) bit pair, labeled "a<bits>-w<bits>", full
 * precision first. prepareLadder() turns such a ladder into the
 * validated, costed, resident form the server registers and reloads.
 */

#ifndef MIXGEMM_SERVE_LADDER_H
#define MIXGEMM_SERVE_LADDER_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/dataset.h"
#include "nn/qat.h"
#include "runtime/ptq.h"
#include "serve/server.h"

namespace mixgemm
{

/** Default serving ladder: the paper's 8-bit baseline, then the mixed
 * and symmetric narrow configurations. */
inline std::vector<std::pair<unsigned, unsigned>>
defaultLadderPrecisions()
{
    return {{8, 8}, {8, 4}, {4, 4}};
}

/**
 * Quantize @p network at every (a_bits, w_bits) in @p precisions via
 * PTQ against @p calibration, producing the TierSpec ladder
 * registerGraph() takes. @p base forwards the remaining PTQ knobs
 * (calibration sample count, bias correction, ...); its a_bits/w_bits
 * are overridden per rung.
 */
std::vector<TierSpec> buildPrecisionLadder(
    Network &network, const PatternDataset &calibration,
    const std::vector<std::pair<unsigned, unsigned>> &precisions,
    PtqOptions base = PtqOptions{});

/**
 * Like buildPrecisionLadder(), but only rung 0 is quantized now; every
 * deeper rung carries a deferred builder the server invokes on the
 * first request that actually degrades to that precision, so
 * registering a model never pays for rungs the load pattern never
 * reaches (and under a rung byte budget, evicted rungs re-build
 * deterministically). The builders capture @p network and
 * @p calibration by reference — both must outlive the server the
 * ladder is registered with.
 */
std::vector<TierSpec> buildLazyPrecisionLadder(
    Network &network, const PatternDataset &calibration,
    const std::vector<std::pair<unsigned, unsigned>> &precisions,
    PtqOptions base = PtqOptions{});

/**
 * A ladder ready to serve: the rung specs, each rung's modeled cost,
 * and the resident rungs with their pre-packed weights. The server's
 * per-graph ladder state; reloadGraph() swaps it as one unit.
 */
struct PreparedLadder
{
    std::vector<TierSpec> ladder;
    /// Per-rung modeled cost (8x8-equivalent MACs): eager rungs from
    /// the dry run, lazy rungs from the analytic uniform-precision
    /// model (raw_macs * a_bits * w_bits / 64) — fixed at preparation
    /// either way, so virtual-time dynamics stay deterministic.
    std::vector<uint64_t> tier_macs;
    /// Raw m*n*k MAC sum of the rung-0 dry run (lazy cost model).
    uint64_t raw_macs = 0;
    /// Materialized per-rung graphs; a null slot is a lazy rung not
    /// (or no longer) resident. Handed out as shared_ptr so eviction
    /// never invalidates an executing request.
    std::vector<std::shared_ptr<const QuantizedGraph>> rungs;
    /// Pre-packed weight indexes per rung (null without a store).
    std::vector<std::shared_ptr<const PackedModelIndex>> rung_packs;
    std::vector<uint64_t> rung_bytes;    ///< footprint when resident
    std::vector<uint64_t> rung_last_use; ///< logical LRU tick
};

/**
 * Validate @p input_shape (non-empty, every dimension in [1, 65536])
 * and @p ladder (non-empty, rung 0 eager, lazy precisions in [2, 8]),
 * dry-run every eager rung once against a MAC-counting backend
 * on an input of @p input_shape — which both proves the rung accepts
 * the shape and measures its modeled service cost — and make the eager
 * rungs resident, with packed weights from @p store when one is given.
 * Lazy rungs run nothing: not paying their build and pack cost until
 * first use is their whole point. @p caller prefixes every error and
 * warning ("registerGraph('x')", "reloadGraph('x')").
 */
Expected<PreparedLadder>
prepareLadder(const std::string &caller, std::vector<TierSpec> ladder,
              const std::vector<size_t> &input_shape,
              PackedWeightStore *store);

/**
 * Packed weights for @p graph from @p store (pack-once /
 * mmap-thereafter); null without a store or on a load failure, which
 * is warned under @p context. @p packed_bytes, when given, receives
 * the panel payload size.
 */
std::shared_ptr<const PackedModelIndex>
loadPackedIndex(PackedWeightStore *store, const QuantizedGraph &graph,
                const std::string &context,
                uint64_t *packed_bytes = nullptr);

} // namespace mixgemm

#endif // MIXGEMM_SERVE_LADDER_H
