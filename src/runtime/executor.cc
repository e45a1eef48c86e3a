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

namespace {

/** Tokens each batch row of @p feed feeds: its T. */
std::int64_t
rowTokens(const ForwardFeed &feed)
{
    return static_cast<std::int64_t>(feed.tokens.size()) /
           feed.cache->batch();
}

} // namespace

CooperativeExecutor::CooperativeExecutor(const hw::SystemConfig &system,
                                         TransformerWeights weights,
                                         ExecutorConfig config)
    : system_(system), weights_(std::move(weights)),
      config_(std::move(config)), cpu_(system.cpu), gpu_(system.gpu),
      ledger_(system.hostLink), sampler_(config_.sampling)
{
    weights_.config.validate();
    LIA_ASSERT(config_.residentLayers >= 0 &&
               config_.residentLayers <= weights_.config.numLayers,
               "bad resident layer count");

    // Construction-time pool injection: every kernel this executor
    // runs — generate()'s passes and the serving backend's one pass
    // per iteration alike — shares one set of persistent workers.
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
CooperativeExecutor::embed(std::span<const ForwardFeed> feeds,
                           std::int64_t rows)
{
    const auto &cfg = weights_.config;
    const std::int64_t d = cfg.dModel;
    // Token and position of every hidden row: row b of a feed of T
    // tokens per row sits at positions cache.length() + [0, T).
    std::vector<std::int64_t> tokens, positions;
    tokens.reserve(static_cast<std::size_t>(rows));
    positions.reserve(static_cast<std::size_t>(rows));
    for (const ForwardFeed &feed : feeds) {
        const std::int64_t start = feed.cache->length();
        const std::int64_t per_row = rowTokens(feed);
        LIA_ASSERT(start + per_row <= cfg.maxSeqLen, "position overflow");
        for (std::size_t i = 0; i < feed.tokens.size(); ++i) {
            const std::int64_t tok = feed.tokens[i];
            LIA_ASSERT(tok >= 0 && tok < cfg.vocabSize,
                       "token id out of range: ", tok);
            tokens.push_back(tok);
            positions.push_back(start +
                                static_cast<std::int64_t>(i) % per_row);
        }
    }
    Tensor hidden({rows, d});
    const float *emb = weights_.embedding.data();
    const float *pos_emb = weights_.posEmbedding.data();
    float *out = hidden.data();
    // Row-partitioned gather: each row is written by exactly one
    // chunk, so the result is thread-count invariant. A row is d
    // adds, so decode-sized gathers (n <= grain) run inline.
    const std::int64_t grain = std::max<std::int64_t>(1, 16384 / d);
    kernelOpts_.pool->parallelFor(
        rows, grain, [&](std::int64_t r0, std::int64_t r1) {
            for (std::int64_t r = r0; r < r1; ++r) {
                const auto i = static_cast<std::size_t>(r);
                const float *erow = emb + tokens[i] * d;
                const float *prow = pos_emb + positions[i] * d;
                float *orow = out + r * d;
                for (std::int64_t c = 0; c < d; ++c)
                    orow[c] = erow[c] + prow[c];
            }
        });
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
CooperativeExecutor::forwardLayers(std::span<const ForwardFeed> feeds,
                                   Tensor hidden)
{
    const auto &cfg = weights_.config;
    // Each feed's tokens per row, and the context its attention
    // sublayers operate on, including the tokens this pass appends
    // (decode — and a chunked prefill extending existing history —
    // read the grown cache).
    std::vector<std::int64_t> tokens, contexts;
    std::size_t rows = 0;
    for (const ForwardFeed &feed : feeds) {
        tokens.push_back(rowTokens(feed));
        contexts.push_back(feed.cache->length() + tokens.back());
        rows += static_cast<std::size_t>(feed.cache->batch());
    }
    const std::int64_t kv_dim = cfg.kvDim();
    std::vector<KvLayerView> views(rows);

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
        // projection outputs, and shows attention one view per row
        // carrying that row's query count.
        std::int64_t at = 0;
        std::size_t row = 0;
        for (std::size_t f = 0; f < feeds.size(); ++f) {
            KvCache &cache = *feeds[f].cache;
            cache.append(l, k.data() + at * kv_dim, v.data() + at * kv_dim,
                         tokens[f]);
            for (std::int64_t b = 0; b < cache.batch(); ++b, ++row) {
                views[row] = cache.view(l, b);
                views[row].queries = tokens[f];
            }
            at += cache.batch() * tokens[f];
        }

        // Sublayers 2+3: attention reading the caches in place.
        Tensor attn = attention(q, views, cfg.numHeads, cfg.kvHeads,
                                cfg.headDim, kernelOpts_);

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

    // Charge feed by feed, layer by layer, sublayer by sublayer, each
    // at its own stage and context: the order separate per-feed passes
    // record in, so the ledger's and devices' floating-point sums come
    // out the same.
    for (std::size_t f = 0; f < feeds.size(); ++f) {
        const Stage stage = feeds[f].stage;
        const Policy &policy = stage == Stage::Prefill
                                   ? config_.prefillPolicy
                                   : config_.decodePolicy;
        for (std::int64_t l = 0; l < cfg.numLayers; ++l) {
            const bool resident = l < config_.residentLayers;
            for (int i = 0; i < model::kNumSublayers; ++i)
                chargeSublayer(i, stage, feeds[f].cache->batch(),
                               contexts[f], resident, policy);
        }
    }
    return hidden;
}

std::vector<std::int64_t>
CooperativeExecutor::sample(const Tensor &hidden,
                            const std::vector<std::int64_t> &picked)
{
    // Only the picked positions feed the LM head. layerNorm, the
    // packed projection and row sampling are row-independent and
    // row-count invariant (DESIGN.md §7), so a row's token does not
    // depend on which other rows are sampled with it.
    const std::int64_t d = weights_.config.dModel;
    Tensor rows({static_cast<std::int64_t>(picked.size()), d});
    for (std::size_t i = 0; i < picked.size(); ++i)
        std::memcpy(rows.data() + static_cast<std::int64_t>(i) * d,
                    hidden.data() + picked[i] * d,
                    sizeof(float) * static_cast<std::size_t>(d));
    Tensor normed =
        layerNorm(rows, weights_.lnFinalGain, weights_.lnFinalBias,
                  kernelOpts_);
    // Tied LM head: the packed transpose of the embedding. The vocab
    // axis is the column-tile partition, so decode's m = 1 projection
    // — the widest matmul per step — spreads across the pool.
    Tensor logits = matmulPacked(normed, weights_.packedLmHead,
                                 Tensor(), kernelOpts_);
    return sampler_.sampleRows(logits);
}

std::vector<std::int64_t>
CooperativeExecutor::forward(std::span<const ForwardFeed> feeds)
{
    LIA_ASSERT(!feeds.empty(), "forward pass without feeds");
    std::int64_t rows = 0;
    for (std::size_t f = 0; f < feeds.size(); ++f) {
        const ForwardFeed &feed = feeds[f];
        LIA_ASSERT(feed.cache != nullptr, "forward feed without a cache");
        const std::int64_t batch = feed.cache->batch();
        const auto count = static_cast<std::int64_t>(feed.tokens.size());
        LIA_ASSERT(count > 0 && count % batch == 0, "forward feeds ",
                   count, " tokens to ", batch, " rows");
        LIA_ASSERT(feed.stage == Stage::Prefill ||
                       feed.cache->length() > 0,
                   "decode against an empty cache");
        for (std::size_t g = 0; g < f; ++g)
            LIA_ASSERT(feeds[g].cache != feed.cache,
                       "two feeds of one pass share a cache");
        rows += count;
    }

    Tensor hidden = forwardLayers(feeds, embed(feeds, rows));

    // The hidden rows the LM head samples: each row's final position,
    // or every position of a sampleEvery feed.
    std::vector<std::int64_t> picked;
    std::int64_t row = 0;
    for (const ForwardFeed &feed : feeds) {
        const std::int64_t tokens = rowTokens(feed);
        for (std::int64_t b = 0; b < feed.cache->batch(); ++b) {
            for (std::int64_t t = feed.sampleEvery ? 0 : tokens - 1;
                 t < tokens; ++t)
                picked.push_back(row + t);
            row += tokens;
        }
    }
    return sample(hidden, picked);
}

std::vector<std::vector<std::int64_t>>
CooperativeExecutor::generate(
    const std::vector<std::vector<std::int64_t>> &prompts,
    std::int64_t l_out)
{
    LIA_ASSERT(l_out >= 1, "need at least one output token");
    LIA_ASSERT(!prompts.empty(), "empty batch");
    const auto &cfg = weights_.config;
    const auto batch = static_cast<std::int64_t>(prompts.size());
    const std::size_t tokens = prompts[0].size();
    LIA_ASSERT(tokens > 0, "empty prompt");
    ForwardFeed feed{nullptr, {}, Stage::Prefill};
    for (const auto &p : prompts) {
        LIA_ASSERT(p.size() == tokens, "prompts must share one length");
        feed.tokens.insert(feed.tokens.end(), p.begin(), p.end());
    }

    // The cache is host-resident (§5's assumption) and lives for the
    // call.
    KvCache cache(cfg, batch, cfg.maxSeqLen);
    const double cache_bytes =
        units::bytesPerElement * 2.0 * static_cast<double>(batch) *
        static_cast<double>(cfg.maxSeqLen) *
        static_cast<double>(cfg.kvDim()) *
        static_cast<double>(cfg.numLayers);
    const bool ok = cpu_.tryAllocate(cache_bytes);
    LIA_ASSERT(ok, "KV cache does not fit host memory");
    feed.cache = &cache;

    // One prefill pass, then decode passes feeding each sampled token
    // back; the sampler sees the rows in batch order every pass.
    std::vector<std::vector<std::int64_t>> out(prompts.size());
    for (std::int64_t t = 0; t < l_out; ++t) {
        feed.tokens = forward({&feed, 1});
        feed.stage = Stage::Decode;
        for (std::size_t b = 0; b < prompts.size(); ++b)
            out[b].push_back(feed.tokens[b]);
    }
    cpu_.release(cache_bytes);
    return out;
}

} // namespace runtime
} // namespace lia
