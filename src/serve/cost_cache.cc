#include "serve/cost_cache.hh"

#include <algorithm>

#include "base/logging.hh"
#include "core/multi_gpu.hh"

namespace lia {
namespace serve {

IterationCostCache::IterationCostCache(
    const core::EngineModel &engine, std::int64_t context_bucket,
    const core::MultiGpuLiaModel *tensor_parallel)
    : engine_(engine), contextBucket_(context_bucket),
      tensorParallel_(tensor_parallel)
{
    LIA_ASSERT(context_bucket >= 1, "bad context bucket");
}

void
IterationCostCache::addTensorParallelComm(
    core::IterationEstimate &estimate, model::Stage stage,
    std::int64_t batch, std::int64_t tokens,
    std::int64_t context) const
{
    if (!tensorParallel_ || !estimate.feasible)
        return;
    // layerCommTime sizes the all-reduced hidden state from
    // batch x tokens() rows; a decode step carries its context so the
    // workload is well-formed even though only tokens() matters.
    model::Workload workload;
    workload.stage = stage;
    workload.batch = batch;
    workload.contextLen =
        stage == model::Stage::Prefill ? tokens : context;
    const double comm =
        tensorParallel_->iterationCommTime(workload, estimate.policy);
    estimate.time += comm;
    estimate.breakdown.comTime += comm;
}

std::int64_t
IterationCostCache::bucketContext(std::int64_t context) const
{
    LIA_ASSERT(context >= 1, "bad context");
    const std::int64_t up =
        ((context + contextBucket_ - 1) / contextBucket_) *
        contextBucket_;
    return std::min(up, engine_.model().maxSeqLen);
}

std::int64_t
IterationCostCache::bucketBatch(std::int64_t batch)
{
    LIA_ASSERT(batch >= 1, "bad batch");
    if (batch <= 4)
        return batch;
    // Geometric ladder 4, 6, 8, 12, 16, 24, ... (x1.5 alternating with
    // x1.33): fine enough that rounding up costs < 50% extra batch.
    std::int64_t step = 4;
    while (step < batch)
        step += std::max<std::int64_t>(step / 2, 1);
    return step;
}

const core::IterationEstimate &
IterationCostCache::estimate(model::Stage stage, std::int64_t batch,
                             std::int64_t context) const
{
    const Key key{static_cast<int>(stage), bucketBatch(batch),
                  bucketContext(context)};
    auto it = cache_.find(key);
    if (it == cache_.end()) {
        const core::IterationScenario scenario{
            stage, std::get<1>(key), std::get<2>(key)};
        core::IterationEstimate est =
            engine_.estimateIteration(scenario);
        addTensorParallelComm(est, stage, std::get<1>(key),
                              std::get<2>(key), std::get<2>(key));
        it = cache_.emplace(key, std::move(est)).first;
    }
    return it->second;
}

double
IterationCostCache::time(model::Stage stage, std::int64_t batch,
                         std::int64_t context) const
{
    return estimate(stage, batch, context).time;
}

const core::IterationEstimate &
IterationCostCache::chunkEstimate(std::int64_t batch,
                                  std::int64_t history,
                                  std::int64_t tokens) const
{
    LIA_ASSERT(history >= 0, "bad chunk history");
    if (history <= 0)
        return estimate(model::Stage::Prefill, batch, tokens);

    // Quantise both ends of the chunk onto the context grid so nearby
    // (history, chunk) pairs share one telescoped evaluation; keep the
    // chunk end within the model maximum the same way bucketContext
    // does.
    const std::int64_t max_seq = engine_.model().maxSeqLen;
    const std::int64_t h = std::min(bucketContext(history), max_seq - 1);
    const std::int64_t end =
        std::min(bucketContext(history + tokens), max_seq);
    const std::int64_t t = std::max<std::int64_t>(end - h, 1);

    const Key key{bucketBatch(batch), h, t};
    auto it = chunkCache_.find(key);
    if (it == chunkCache_.end()) {
        core::IterationEstimate est =
            engine_.estimatePrefillChunk(std::get<0>(key), h, t);
        // The chunk's all-reduces carry only the tokens it processes.
        addTensorParallelComm(est, model::Stage::Prefill,
                              std::get<0>(key), t, h + t);
        it = chunkCache_.emplace(key, std::move(est)).first;
    }
    return it->second;
}

double
IterationCostCache::chunkTime(std::int64_t batch, std::int64_t history,
                              std::int64_t tokens) const
{
    return chunkEstimate(batch, history, tokens).time;
}

const core::IterationEstimate &
IterationCostCache::specEstimate(std::int64_t batch,
                                 std::int64_t context,
                                 std::int64_t draft_tokens) const
{
    LIA_ASSERT(draft_tokens >= 1, "bad draft token count");
    // The verify pass extends the context by draft_tokens positions:
    // clamp the quantised context so the verify end stays inside the
    // model maximum (the executable path's k clamp guarantees the
    // true operating point fits; only bucketing can push past it).
    const std::int64_t max_seq = engine_.model().maxSeqLen;
    const std::int64_t ctx = std::max<std::int64_t>(
        1, std::min(bucketContext(context), max_seq - draft_tokens));

    const Key key{bucketBatch(batch), ctx, draft_tokens};
    auto it = specCache_.find(key);
    if (it == specCache_.end()) {
        core::IterationScenario scenario;
        scenario.stage = model::Stage::Decode;
        scenario.batch = std::get<0>(key);
        scenario.context = ctx;
        scenario.specDraftTokens = draft_tokens;
        core::IterationEstimate est =
            engine_.estimateIteration(scenario);
        // The verify all-reduces carry the k+1 scored tokens.
        addTensorParallelComm(est, model::Stage::Prefill,
                              std::get<0>(key), draft_tokens + 1,
                              ctx + draft_tokens);
        it = specCache_.emplace(key, std::move(est)).first;
    }
    return it->second;
}

} // namespace serve
} // namespace lia
