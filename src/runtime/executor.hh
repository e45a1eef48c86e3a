/**
 * @file
 * Cooperative CPU-GPU execution back-end (§5's C2 component).
 *
 * Runs real transformer inference while honouring a compute-offloading
 * plan: every sublayer executes "on" the device the policy assigns,
 * parameters stream to the GPU unless the layer is resident, the KV
 * cache lives host-side, and every cross-device byte is recorded in the
 * transfer ledger. Numeric results are identical for every plan (the
 * kernels are device-agnostic) — the plan only changes where time and
 * traffic are accounted, exactly like the paper's back-end only changes
 * where work executes.
 *
 * Integration tests cross-check the ledger's byte counts and the
 * modeled busy times against the analytical CostModel.
 */

#ifndef LIA_RUNTIME_EXECUTOR_HH
#define LIA_RUNTIME_EXECUTOR_HH

#include <memory>
#include <span>
#include <vector>

#include "core/policy.hh"
#include "obs/profiler.hh"
#include "hw/system.hh"
#include "runtime/device.hh"
#include "runtime/kernels.hh"
#include "runtime/kv_cache.hh"
#include "runtime/sampler.hh"
#include "runtime/weights.hh"

namespace lia {
namespace runtime {

/** Execution plan handed to the back-end. */
struct ExecutorConfig
{
    core::Policy prefillPolicy = core::Policy::fullCpu();
    core::Policy decodePolicy = core::Policy::fullCpu();
    int residentLayers = 0;     //!< Optimization-1 resident prefix
    bool bf16Rounding = true;   //!< emulate BF16 numerics
    SamplingConfig sampling;    //!< token selection (greedy default)
    /**
     * Weight storage/execution precision. At Int8 the executor packs
     * the projection matrices into the int8 VNNI-style tile format
     * and runs them through matmulInt8 (per-tensor placement with the
     * fp32 pack as fallback; the tied LM head always stays fp32), and
     * the weights' config must already be int8-priced
     * (weightBytesPerElement == 1.0, e.g. via model::quantized) so
     * the transfer ledger and the analytic cost model move the same
     * parameter bytes. Int4 shrinks accounting only — there is no
     * int4 kernel, so execution stays fp32.
     */
    model::WeightPrecision weightPrecision =
        model::WeightPrecision::Bf16;
    /**
     * Pool the kernels run on; injected at construction so every
     * prefill/decode call — including the serving backend's one
     * decodeBatch pass per iteration — reuses one set of persistent
     * workers. Null selects the process-wide shared pool. Thread
     * count never changes results (DESIGN.md §7).
     */
    std::shared_ptr<base::ThreadPool> pool;
    /**
     * Wall-clock kernel profiling: the executor owns an
     * obs::KernelProfiler, threads it through KernelOptions, and
     * installs it as the pool's ParallelObserver. Off — the default —
     * keeps the hot path bit-for-bit untouched (no clock reads, no
     * observer); on, results are still identical, only wall timings
     * are collected. One profiling executor per pool at a time (the
     * observer slot is singular).
     */
    bool profileKernels = false;
};

/**
 * Outcome of one speculative verify pass (DESIGN.md §11): the number
 * of draft tokens the target model accepted and the tokens actually
 * emitted — the accepted prefix plus the target's own next token
 * (the "correction", or the bonus token when every draft matched).
 */
struct SpeculativeVerify
{
    std::int64_t accepted = 0;           //!< drafts kept, in [0, k]
    std::vector<std::int64_t> emitted;   //!< accepted+1 tokens
};

/** The cooperative inference executor. */
class CooperativeExecutor
{
  public:
    CooperativeExecutor(const hw::SystemConfig &system,
                        TransformerWeights weights,
                        ExecutorConfig config);
    ~CooperativeExecutor();

    /**
     * Run the prefill stage over same-length prompts; returns the
     * greedy next token of each sequence.
     */
    std::vector<std::int64_t>
    prefill(const std::vector<std::vector<std::int64_t>> &prompts);

    /**
     * Run one decode step feeding back @p tokens (one per sequence);
     * returns the next tokens.
     */
    std::vector<std::int64_t>
    decodeStep(const std::vector<std::int64_t> &tokens);

    /**
     * Full generation: prefill then decode until each sequence has
     * @p l_out generated tokens. Returns (B, l_out) token ids.
     */
    std::vector<std::vector<std::int64_t>>
    generate(const std::vector<std::vector<std::int64_t>> &prompts,
             std::int64_t l_out);

    // --- Per-sequence serving entry points ---------------------------
    //
    // The serving runtime backend interleaves many variable-length
    // sequences, each with its own caller-owned KvCache, as the
    // scheduler's iteration plans dictate. These run the same layer
    // stack as the batch API against an explicit cache, so chunked
    // prefill, decode, and recompute-after-eviction all produce
    // bit-identical numerics to an uninterrupted run.

    /**
     * Run @p tokens of one sequence's prompt on top of @p cache's
     * materialised history (empty cache = monolithic prefill; the
     * token positions start at the current cache length). Returns the
     * sampled next token of the chunk's final position — meaningful
     * once the chunk completes the prompt.
     */
    std::int64_t prefillChunk(KvCache &cache,
                              const std::vector<std::int64_t> &tokens);

    /** One decode step of one sequence: feed @p token, sample the next. */
    std::int64_t decodeOne(KvCache &cache, std::int64_t token);

    /**
     * One decode step of many sequences in one forward pass: feed
     * @p tokens — one per batch row of @p caches, each cache's rows in
     * order — and return the next token of each row. Every projection,
     * LayerNorm and the LM head run once at m = rows; each row embeds
     * at its own position, appends its KV to its own cache, and
     * attends over its own (ragged) context. Rows are independent in
     * every kernel (DESIGN.md §6), so row i's token is bit-identical
     * to a decodeOne of that sequence alone, and the ledger is charged
     * per cache at its own context, in cache order, exactly as
     * sequential decodeOne calls charge it.
     */
    std::vector<std::int64_t>
    decodeBatch(std::span<KvCache *const> caches,
                const std::vector<std::int64_t> &tokens);

    /**
     * Score @p drafts (k proposed tokens) in one batched decode pass
     * feeding [@p last_token, d1..dk-1] — k+1 positions — and sample
     * every position. Greedy accept: the longest prefix where draft i
     * equals the target's sample at position i-1 is kept, plus the
     * target's sample one past it. The cache is rolled back to the
     * accepted length, so after the call
     * `cache.length() == old_length + accepted + 1` — exactly as if
     * the emitted tokens had been produced by sequential decodeOne
     * calls, and bit-identical to them (the kernels are row-count
     * invariant and causal masking is position-exact, DESIGN.md §11).
     */
    SpeculativeVerify
    verifyBatch(KvCache &cache, std::int64_t last_token,
                const std::vector<std::int64_t> &drafts);

    const TransferLedger &ledger() const { return ledger_; }
    const SimDevice &cpuDevice() const { return cpu_; }
    const SimDevice &gpuDevice() const { return gpu_; }
    const KvCache &cache() const;

    /** Modeled serial latency: device busy times plus link time. */
    double modeledSerialLatency() const;

    /** Clear ledger and device busy times (keeps allocations). */
    void resetStats();

    /**
     * The wall-clock kernel profile, or nullptr when
     * ExecutorConfig::profileKernels is off.
     */
    const obs::KernelProfiler *kernelProfiler() const
    {
        return profiler_.get();
    }

  private:
    /**
     * The one forward layer loop: run every decoder layer over the
     * (rows * tokens, d) hidden states of @p caches' batch rows (each
     * cache's rows in order, rows b-major), appending this step's KV
     * to each cache, then charge each cache's sublayers at its own
     * context.
     */
    Tensor forwardLayers(std::span<KvCache *const> caches, Tensor hidden,
                         model::Stage stage, std::int64_t tokens);

    /** Gather embeddings for one step: row r of cache c sits at
     *  position c.length() + t. */
    Tensor embed(const std::vector<std::int64_t> &flat_tokens,
                 std::span<KvCache *const> caches, std::int64_t tokens);

    /** Project hidden states to logits and sample the next tokens. */
    std::vector<std::int64_t> sample(const Tensor &hidden,
                                     std::int64_t batch,
                                     std::int64_t tokens);

    /** Project and sample every position of a batch-1 multi-token
     *  step: one sampled token per row (the verify pass scores all
     *  k+1 positions at once). */
    std::vector<std::int64_t> sampleAll(const Tensor &hidden,
                                        std::int64_t tokens);

    /** Account one sublayer's transfers and compute time. */
    void chargeSublayer(int index, model::Stage stage,
                        std::int64_t batch, std::int64_t context,
                        bool resident, const core::Policy &policy);

    hw::SystemConfig system_;
    TransformerWeights weights_;
    ExecutorConfig config_;
    KernelOptions kernelOpts_;

    SimDevice cpu_;
    SimDevice gpu_;
    TransferLedger ledger_;
    Sampler sampler_;

    std::unique_ptr<KvCache> cache_;
    double cacheAllocation_ = 0;  //!< host bytes reserved for the cache

    /** Owned when config_.profileKernels; also the pool observer. */
    std::unique_ptr<obs::KernelProfiler> profiler_;
};

} // namespace runtime
} // namespace lia

#endif // LIA_RUNTIME_EXECUTOR_HH
