/**
 * @file
 * Memoised per-iteration pricing for the serving engine.
 *
 * The scheduler consults the LIA analytical engine
 * (core::EngineModel::estimateIteration) thousands of times per run —
 * once per decode step and prefill group, at whatever dynamic batch
 * size the batch happens to have. The cache quantises (batch, context)
 * onto a coarse grid (contexts rounded up to a bucket, batches rounded
 * up onto a geometric ladder) and memoises the engine estimates, so
 * repeated iterations at nearby operating points are priced once.
 * Rounding *up* keeps the estimates conservative.
 */

#ifndef LIA_SERVE_COST_CACHE_HH
#define LIA_SERVE_COST_CACHE_HH

#include <cstdint>
#include <map>
#include <tuple>

#include "core/engine.hh"

namespace lia {

namespace core {
class MultiGpuLiaModel;
} // namespace core

namespace serve {

/** Memoised iteration-cost lookups against a core::EngineModel. */
class IterationCostCache
{
  public:
    /**
     * @param engine          the analytical pricing engine
     * @param context_bucket  token granularity of the context grid
     * @param tensor_parallel when non-null, every memoised estimate
     *                        additionally pays the §8 per-iteration
     *                        all-reduce surcharge of this W-way
     *                        tensor-parallel deployment (the engine
     *                        must then be built over its pooled
     *                        system). Must outlive the cache. Null —
     *                        the default — prices a single GPU and is
     *                        bit-identical to the pre-TP cache.
     */
    IterationCostCache(
        const core::EngineModel &engine,
        std::int64_t context_bucket = 32,
        const core::MultiGpuLiaModel *tensor_parallel = nullptr);

    /** Seconds for one iteration of @p stage at (batch, context). */
    double time(model::Stage stage, std::int64_t batch,
                std::int64_t context) const;

    /** Full engine estimate at the quantised operating point. */
    const core::IterationEstimate &estimate(model::Stage stage,
                                            std::int64_t batch,
                                            std::int64_t context) const;

    /**
     * Seconds for one chunked-prefill iteration: @p tokens prompt
     * tokens on top of @p history tokens of materialised KV, at
     * @p batch concurrent chunks (core::EngineModel's telescoped
     * partial-prefill price, quantised and memoised like the rest).
     * With no history this is exactly the monolithic prefill price,
     * so chunking-off runs are bit-identical to the legacy path.
     */
    double chunkTime(std::int64_t batch, std::int64_t history,
                     std::int64_t tokens) const;

    /**
     * Full engine estimate behind chunkTime() — same quantised key,
     * same memo — exposing the CPU/GPU/transfer breakdown for trace
     * attribution. chunkTime(b, h, t) == chunkEstimate(b, h, t).time.
     */
    const core::IterationEstimate &chunkEstimate(
        std::int64_t batch, std::int64_t history,
        std::int64_t tokens) const;

    /**
     * Engine estimate of one speculative decode iteration:
     * @p draft_tokens CPU-side draft proposals plus the target's
     * k+1-token verify pass, at @p batch sequences of @p context
     * history (core::EngineModel's spec pricing, quantised and
     * memoised like the rest). The quantised verify end is clamped
     * inside the model maximum, mirroring chunkEstimate.
     */
    const core::IterationEstimate &specEstimate(
        std::int64_t batch, std::int64_t context,
        std::int64_t draft_tokens) const;

    /** Context rounded up to the bucket grid (model-max clamped). */
    std::int64_t bucketContext(std::int64_t context) const;

    /** Batch rounded up onto the geometric pricing ladder. */
    static std::int64_t bucketBatch(std::int64_t batch);

    /** Distinct engine evaluations performed so far. */
    std::size_t evaluations() const
    {
        return cache_.size() + chunkCache_.size() + specCache_.size();
    }

    const core::EngineModel &engine() const { return engine_; }

  private:
    using Key = std::tuple<int, std::int64_t, std::int64_t>;

    /** Add the TP all-reduce surcharge to a fresh estimate (no-op
     *  without a tensor-parallel model). @p tokens is the number of
     *  tokens each sequence processes this iteration. */
    void addTensorParallelComm(core::IterationEstimate &estimate,
                               model::Stage stage, std::int64_t batch,
                               std::int64_t tokens,
                               std::int64_t context) const;

    const core::EngineModel &engine_;
    std::int64_t contextBucket_;
    const core::MultiGpuLiaModel *tensorParallel_;
    mutable std::map<Key, core::IterationEstimate> cache_;
    mutable std::map<Key, core::IterationEstimate> chunkCache_;
    mutable std::map<Key, core::IterationEstimate> specCache_;
};

} // namespace serve
} // namespace lia

#endif // LIA_SERVE_COST_CACHE_HH
