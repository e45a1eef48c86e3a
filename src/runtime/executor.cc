#include "runtime/executor.hh"

#include <cstring>

#include "base/logging.hh"
#include "base/units.hh"
#include "model/sublayer.hh"

namespace lia {
namespace runtime {

using core::Device;
using core::Policy;
using model::Stage;
using model::Sublayer;

CooperativeExecutor::CooperativeExecutor(const hw::SystemConfig &system,
                                         TransformerWeights weights,
                                         ExecutorConfig config)
    : system_(system), weights_(std::move(weights)),
      config_(std::move(config)),
      kernelOpts_{config_.bf16Rounding},
      cpu_(system.cpu), gpu_(system.gpu), ledger_(system.hostLink),
      sampler_(config_.sampling)
{
    weights_.config.validate();
    LIA_ASSERT(config_.residentLayers >= 0 &&
               config_.residentLayers <= weights_.config.numLayers,
               "bad resident layer count");

    // Construction-time pool injection: every kernel this executor
    // runs — batch prefill/decode and the serving backend's per-
    // iteration decodeBatch pass alike — shares one set of persistent
    // workers.
    kernelOpts_.pool = config_.pool != nullptr
                           ? config_.pool.get()
                           : &base::ThreadPool::shared();
    if (config_.profileKernels) {
        profiler_ = std::make_unique<obs::KernelProfiler>();
        kernelOpts_.profiler = profiler_.get();
        kernelOpts_.pool->setObserver(profiler_.get());
    }
    // Quantized execution must agree with quantized pricing: the
    // ledger charges parameter bytes via the config's
    // weightBytesPerElement, so an int8 executor requires an
    // int8-priced config (model::quantized) and vice versa.
    if (config_.weightPrecision == model::WeightPrecision::Int8) {
        LIA_ASSERT(weights_.config.weightBytesPerElement == 1.0,
                   "int8 execution wants an int8-priced model config "
                   "(weightBytesPerElement 1.0, see model::quantized)");
    }
    // One-time tile packing of the projection weights and LM head. At
    // Bf16 this is layout only; at Int8 it also quantizes the
    // projections onto the per-tile int8 grid (numerics change by
    // design, but stay bit-identical across thread counts and
    // policies).
    weights_.pack(config_.weightPrecision);

    // The framework keeps every parameter host-side (§5); resident
    // layers additionally occupy GPU memory (Optimization-1). Stored
    // bytes follow the weight precision (identical to bf16Bytes for
    // unquantized configs).
    const bool cpu_ok = cpu_.tryAllocate(weights_.storedBytes());
    LIA_ASSERT(cpu_ok, "model does not fit host memory");
    double resident_bytes = 0;
    for (int l = 0; l < config_.residentLayers; ++l)
        resident_bytes += weights_.layers[l].storedBytes(
            weights_.config.weightBytesPerElement);
    const bool gpu_ok = gpu_.tryAllocate(resident_bytes);
    LIA_ASSERT(gpu_ok, "resident layers exceed GPU memory");
}

CooperativeExecutor::~CooperativeExecutor()
{
    // Detach the pool observer before the profiler dies; another
    // executor may have installed its own in the meantime, so only
    // clear the slot if it is still ours.
    if (profiler_ != nullptr &&
        kernelOpts_.pool->observer() == profiler_.get()) {
        kernelOpts_.pool->setObserver(nullptr);
    }
}

const KvCache &
CooperativeExecutor::cache() const
{
    LIA_ASSERT(cache_ != nullptr, "no active generation");
    return *cache_;
}

double
CooperativeExecutor::modeledSerialLatency() const
{
    return cpu_.busyTime() + gpu_.busyTime() + ledger_.totalTime();
}

void
CooperativeExecutor::resetStats()
{
    ledger_.reset();
    cpu_.resetTime();
    gpu_.resetTime();
}

Tensor
CooperativeExecutor::embed(const std::vector<std::int64_t> &flat_tokens,
                           std::span<KvCache *const> caches,
                           std::int64_t tokens)
{
    const auto &cfg = weights_.config;
    const std::int64_t d = cfg.dModel;
    std::vector<std::int64_t> positions;  // first position of each row
    for (const KvCache *cache : caches)
        positions.insert(positions.end(),
                         static_cast<std::size_t>(cache->batch()),
                         cache->length());
    const auto rows = static_cast<std::int64_t>(positions.size());
    LIA_ASSERT(static_cast<std::int64_t>(flat_tokens.size()) ==
                   rows * tokens,
               "embed: ", flat_tokens.size(), " tokens for ", rows,
               " rows of ", tokens);
    Tensor hidden({rows * tokens, d});
    const float *emb = weights_.embedding.data();
    const float *pos_emb = weights_.posEmbedding.data();
    float *out = hidden.data();
    // Row-partitioned gather: each (b, t) row is written by exactly
    // one chunk, so the result is thread-count invariant. A row is d
    // adds, so decode-sized gathers (n <= grain) run inline.
    const std::int64_t grain = std::max<std::int64_t>(1, 16384 / d);
    kernelOpts_.pool->parallelFor(
        rows * tokens, grain, [&](std::int64_t r0, std::int64_t r1) {
            for (std::int64_t r = r0; r < r1; ++r) {
                const std::int64_t tok =
                    flat_tokens[static_cast<std::size_t>(r)];
                LIA_ASSERT(tok >= 0 && tok < cfg.vocabSize,
                           "token id out of range: ", tok);
                const std::int64_t pos =
                    positions[static_cast<std::size_t>(r / tokens)] +
                    r % tokens;
                LIA_ASSERT(pos < cfg.maxSeqLen, "position overflow");
                const float *erow = emb + tok * d;
                const float *prow = pos_emb + pos * d;
                float *orow = out + r * d;
                for (std::int64_t c = 0; c < d; ++c)
                    orow[c] = erow[c] + prow[c];
            }
        });
    if (kernelOpts_.bf16Rounding)
        hidden.roundBf16();
    return hidden;
}

void
CooperativeExecutor::chargeSublayer(int index, Stage stage,
                                    std::int64_t batch,
                                    std::int64_t context, bool resident,
                                    const Policy &policy)
{
    const auto sublayer = model::allSublayers()[index];
    const model::Workload workload{stage, batch, context};
    const auto costs =
        model::sublayerCosts(weights_.config, workload, sublayer);
    const Device dev = policy.device(index);
    const Device prev_dev = index == 0
                                ? policy.device(model::kNumSublayers - 1)
                                : policy.device(index - 1);

    if (dev != prev_dev)
        ledger_.record(Traffic::Activation, costs.dX);

    if (model::isParamSublayer(sublayer)) {
        if (dev == Device::Gpu && !resident)
            ledger_.record(Traffic::Param, costs.dY);
    } else if (stage == Stage::Prefill) {
        if (dev != policy.device(0))
            ledger_.record(Traffic::Kv, costs.dY);
    } else if (dev == Device::Gpu) {
        ledger_.record(Traffic::Kv, costs.dY);
    }

    const double residual_bytes =
        units::bytesPerElement * static_cast<double>(batch) *
        static_cast<double>(workload.tokens()) *
        static_cast<double>(weights_.config.dModel);
    if (sublayer == Sublayer::OutProjection &&
        dev != policy.device(0)) {
        ledger_.record(Traffic::Activation, residual_bytes);
    }
    if (sublayer == Sublayer::Fc2 &&
        dev != policy.device(static_cast<int>(Sublayer::OutProjection))) {
        ledger_.record(Traffic::Activation, residual_bytes);
    }

    if (sublayer == Sublayer::QkvMapping && dev == Device::Gpu)
        ledger_.record(Traffic::Kv, costs.dKv);

    const double rows = static_cast<double>(batch) *
                        static_cast<double>(workload.tokens());
    SimDevice &device = dev == Device::Cpu ? cpu_ : gpu_;
    device.accrueCompute(costs.flops, costs.dX + costs.dY + costs.dOut,
                         rows);
}

Tensor
CooperativeExecutor::forwardLayers(std::span<KvCache *const> caches,
                                   Tensor hidden, Stage stage,
                                   std::int64_t tokens)
{
    const auto &cfg = weights_.config;
    const Policy &policy = stage == Stage::Prefill
                               ? config_.prefillPolicy
                               : config_.decodePolicy;
    // Context each cache's attention sublayers operate on, including
    // the tokens this step appends (decode — and a chunked prefill
    // extending existing history — read the grown cache).
    std::vector<std::int64_t> contexts;
    std::int64_t rows = 0;
    for (const KvCache *cache : caches) {
        contexts.push_back(cache->length() + tokens);
        rows += cache->batch();
    }
    LIA_ASSERT(hidden.dim(0) == rows * tokens,
               "hidden rows ", hidden.dim(0), " != ", rows, " x ", tokens);
    const std::int64_t kv_step = tokens * cfg.kvDim();
    std::vector<KvLayerView> views(static_cast<std::size_t>(rows));

    // Per-tensor dispatch over the placement pack() decided: the int8
    // tile kernel where an int8 pack exists, the fp32 packed kernel
    // everywhere else (excluded tensors, unquantized runs).
    const auto project = [this](const Tensor &x, const PackedMatrix &fp,
                                const PackedInt8Matrix &q8,
                                const Tensor &bias) {
        return q8.empty() ? matmulPacked(x, fp, bias, kernelOpts_)
                          : matmulInt8(x, q8, bias, kernelOpts_);
    };

    for (std::int64_t l = 0; l < cfg.numLayers; ++l) {
        const auto &w = weights_.layers[static_cast<std::size_t>(l)];

        // Sublayer 1: QKV mapping (pre-LN). Weight matmuls run the
        // packed-tile kernel against the forms cached at pack() time.
        Tensor normed =
            layerNorm(hidden, w.lnAttnGain, w.lnAttnBias, kernelOpts_);
        Tensor q = project(normed, w.packedWq, w.int8Wq, w.bq);
        Tensor k = project(normed, w.packedWk, w.int8Wk, w.bk);
        Tensor v = project(normed, w.packedWv, w.int8Wv, w.bv);
        // Each cache takes its rows of K and V straight out of the
        // projection outputs, and shows attention one view per row.
        std::int64_t row = 0;
        for (KvCache *cache : caches) {
            cache->append(l, k.data() + row * kv_step,
                          v.data() + row * kv_step, tokens);
            for (std::int64_t b = 0; b < cache->batch(); ++b, ++row)
                views[static_cast<std::size_t>(row)] = cache->view(l, b);
        }

        // Sublayers 2+3: attention reading the caches in place.
        Tensor attn = attention(q, views, tokens, cfg.numHeads,
                                cfg.kvHeads, cfg.headDim, kernelOpts_);

        // Sublayer 4: output projection + residual.
        Tensor proj = project(attn, w.packedWo, w.int8Wo, w.bo);
        hidden = add(hidden, proj, kernelOpts_);

        // Sublayers 5+6: FFN + residual. OPT uses ReLU; Llama-style
        // models gate the up projection with SiLU (SwiGLU).
        Tensor ffn_in =
            layerNorm(hidden, w.lnFfnGain, w.lnFfnBias, kernelOpts_);
        Tensor h1 = project(ffn_in, w.packedW1, w.int8W1, w.b1);
        if (cfg.gatedFfn) {
            Tensor gate = project(ffn_in, w.packedWg, w.int8Wg, w.bg);
            siluInPlace(gate, kernelOpts_);
            mulInPlace(h1, gate, kernelOpts_);
        } else {
            reluInPlace(h1, kernelOpts_);
        }
        Tensor h2 = project(h1, w.packedW2, w.int8W2, w.b2);
        hidden = add(hidden, h2, kernelOpts_);
    }

    // Charge cache by cache, layer by layer, sublayer by sublayer: the
    // order sequential per-cache passes record in, so the ledger's and
    // devices' floating-point sums come out the same.
    for (std::size_t c = 0; c < caches.size(); ++c) {
        for (std::int64_t l = 0; l < cfg.numLayers; ++l) {
            const bool resident = l < config_.residentLayers;
            for (int i = 0; i < model::kNumSublayers; ++i)
                chargeSublayer(i, stage, caches[c]->batch(), contexts[c],
                               resident, policy);
        }
    }
    return hidden;
}

std::vector<std::int64_t>
CooperativeExecutor::sample(const Tensor &hidden, std::int64_t batch,
                            std::int64_t tokens)
{
    const auto &cfg = weights_.config;
    // Only the final position of each sequence feeds the LM head.
    const std::int64_t d = cfg.dModel;
    Tensor last({batch, d});
    for (std::int64_t b = 0; b < batch; ++b)
        std::memcpy(last.data() + b * d,
                    hidden.data() + (b * tokens + tokens - 1) * d,
                    sizeof(float) * static_cast<std::size_t>(d));
    Tensor normed =
        layerNorm(last, weights_.lnFinalGain, weights_.lnFinalBias,
                  kernelOpts_);
    // Tied LM head: the packed transpose of the embedding. The vocab
    // axis is the column-tile partition, so decode's m = 1 projection
    // — the widest matmul per step — spreads across the pool.
    Tensor logits = matmulPacked(normed, weights_.packedLmHead,
                                 Tensor(), kernelOpts_);
    return sampler_.sampleRows(logits);
}

std::vector<std::int64_t>
CooperativeExecutor::prefill(
    const std::vector<std::vector<std::int64_t>> &prompts)
{
    LIA_ASSERT(!prompts.empty(), "empty batch");
    const auto batch = static_cast<std::int64_t>(prompts.size());
    const auto tokens = static_cast<std::int64_t>(prompts[0].size());
    LIA_ASSERT(tokens > 0, "empty prompt");
    for (const auto &p : prompts)
        LIA_ASSERT(static_cast<std::int64_t>(p.size()) == tokens,
                   "prompts must share one length");

    // (Re)create the cache; it is host-resident (§5's assumption).
    if (cacheAllocation_ > 0)
        cpu_.release(cacheAllocation_);
    cache_ = std::make_unique<KvCache>(weights_.config, batch,
                                       weights_.config.maxSeqLen);
    cacheAllocation_ =
        units::bytesPerElement * 2.0 * static_cast<double>(batch) *
        static_cast<double>(weights_.config.maxSeqLen) *
        static_cast<double>(weights_.config.kvDim()) *
        static_cast<double>(weights_.config.numLayers);
    const bool ok = cpu_.tryAllocate(cacheAllocation_);
    LIA_ASSERT(ok, "KV cache does not fit host memory");

    std::vector<std::int64_t> flat;
    flat.reserve(static_cast<std::size_t>(batch * tokens));
    for (const auto &p : prompts)
        flat.insert(flat.end(), p.begin(), p.end());

    KvCache *const caches[] = {cache_.get()};
    Tensor hidden = embed(flat, caches, tokens);
    hidden = forwardLayers(caches, std::move(hidden), Stage::Prefill,
                           tokens);
    return sample(hidden, batch, tokens);
}

std::vector<std::int64_t>
CooperativeExecutor::decodeStep(const std::vector<std::int64_t> &tokens)
{
    LIA_ASSERT(cache_ != nullptr, "prefill must run first");
    LIA_ASSERT(static_cast<std::int64_t>(tokens.size()) == cache_->batch(),
               "batch mismatch");
    KvCache *const caches[] = {cache_.get()};
    return decodeBatch(caches, tokens);
}

std::int64_t
CooperativeExecutor::prefillChunk(
    KvCache &cache, const std::vector<std::int64_t> &tokens)
{
    LIA_ASSERT(cache.batch() == 1,
               "per-sequence prefill wants a batch-1 cache");
    LIA_ASSERT(!tokens.empty(), "empty prefill chunk");
    const auto count = static_cast<std::int64_t>(tokens.size());
    KvCache *const caches[] = {&cache};
    Tensor hidden = embed(tokens, caches, count);
    hidden = forwardLayers(caches, std::move(hidden), Stage::Prefill,
                           count);
    return sample(hidden, 1, count).front();
}

std::int64_t
CooperativeExecutor::decodeOne(KvCache &cache, std::int64_t token)
{
    LIA_ASSERT(cache.batch() == 1,
               "per-sequence decode wants a batch-1 cache");
    KvCache *const caches[] = {&cache};
    return decodeBatch(caches, {token}).front();
}

std::vector<std::int64_t>
CooperativeExecutor::decodeBatch(std::span<KvCache *const> caches,
                                 const std::vector<std::int64_t> &tokens)
{
    LIA_ASSERT(!caches.empty(), "decode batch without sequences");
    std::int64_t rows = 0;
    for (const KvCache *cache : caches) {
        LIA_ASSERT(cache->length() > 0, "decode against an empty cache");
        rows += cache->batch();
    }
    LIA_ASSERT(static_cast<std::int64_t>(tokens.size()) == rows,
               "decode batch feeds ", tokens.size(), " tokens to ", rows,
               " rows");
    Tensor hidden = embed(tokens, caches, 1);
    hidden = forwardLayers(caches, std::move(hidden), Stage::Decode, 1);
    return sample(hidden, rows, 1);
}

std::vector<std::int64_t>
CooperativeExecutor::sampleAll(const Tensor &hidden,
                               std::int64_t tokens)
{
    LIA_ASSERT(hidden.dim(0) == tokens, "hidden rows != tokens");
    // Every row feeds the LM head. layerNorm, the packed projection,
    // and greedy row sampling are all row-independent and row-count
    // invariant (DESIGN.md §7), so row i here is bit-identical to the
    // single-row sample() of a sequential decode at that position.
    Tensor normed =
        layerNorm(hidden, weights_.lnFinalGain, weights_.lnFinalBias,
                  kernelOpts_);
    Tensor logits = matmulPacked(normed, weights_.packedLmHead,
                                 Tensor(), kernelOpts_);
    return sampler_.sampleRows(logits);
}

SpeculativeVerify
CooperativeExecutor::verifyBatch(KvCache &cache,
                                 std::int64_t last_token,
                                 const std::vector<std::int64_t> &drafts)
{
    LIA_ASSERT(cache.batch() == 1,
               "per-sequence verify wants a batch-1 cache");
    LIA_ASSERT(cache.length() > 0, "verify against an empty cache");
    LIA_ASSERT(!drafts.empty(), "verify needs at least one draft");
    const auto k = static_cast<std::int64_t>(drafts.size());
    const std::int64_t base = cache.length();

    // One decode pass over k+1 positions: the last emitted token plus
    // the k drafts shifted right by one. Position i's sample depends
    // only on inputs up to i (causal masking), which equal the true
    // greedy stream while the draft prefix holds.
    std::vector<std::int64_t> feed;
    feed.reserve(static_cast<std::size_t>(k + 1));
    feed.push_back(last_token);
    feed.insert(feed.end(), drafts.begin(), drafts.end());

    KvCache *const caches[] = {&cache};
    Tensor hidden = embed(feed, caches, k + 1);
    hidden = forwardLayers(caches, std::move(hidden), Stage::Decode,
                           k + 1);
    const std::vector<std::int64_t> samples = sampleAll(hidden, k + 1);

    SpeculativeVerify out;
    while (out.accepted < k &&
           samples[static_cast<std::size_t>(out.accepted)] ==
               drafts[static_cast<std::size_t>(out.accepted)]) {
        ++out.accepted;
    }
    out.emitted.assign(samples.begin(),
                       samples.begin() + out.accepted + 1);

    // Roll the rejected suffix out of the cache: keep the accepted
    // drafts plus the slot the correction/bonus token just filled.
    cache.truncate(base + out.accepted + 1);
    return out;
}

std::vector<std::vector<std::int64_t>>
CooperativeExecutor::generate(
    const std::vector<std::vector<std::int64_t>> &prompts,
    std::int64_t l_out)
{
    LIA_ASSERT(l_out >= 1, "need at least one output token");
    std::vector<std::vector<std::int64_t>> out(prompts.size());

    std::vector<std::int64_t> next = prefill(prompts);
    for (std::size_t b = 0; b < prompts.size(); ++b)
        out[b].push_back(next[b]);
    for (std::int64_t t = 1; t < l_out; ++t) {
        next = decodeStep(next);
        for (std::size_t b = 0; b < prompts.size(); ++b)
            out[b].push_back(next[b]);
    }
    return out;
}

} // namespace runtime
} // namespace lia
