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
     * forward pass — including the serving backend's one pass per
     * iteration — reuses one set of persistent workers. Null selects
     * the process-wide shared pool. Thread count never changes
     * results (DESIGN.md §7).
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
 * One cache's share of a forward pass: its batch rows feed T tokens
 * each, at positions cache->length() onward.
 */
struct ForwardFeed
{
    KvCache *cache = nullptr;
    /** cache->batch() * T token ids, row by row. */
    std::vector<std::int64_t> tokens;
    /** The stage the feed is charged as: its policy and cost model. */
    model::Stage stage = model::Stage::Decode;
    /** Sample every position (a speculative verify), not only the
     *  last. */
    bool sampleEvery = false;
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
     * One forward pass over every feed, against caller-owned caches
     * (DESIGN.md §6). Each feed's rows embed at their own positions,
     * append their KV to their own cache and attend over their own
     * context, so a pass may mix prefill chunks, decode steps and
     * verify positions of many sequences; every projection, LayerNorm
     * and the LM head run once at m = Σ rows × T. Rows are independent
     * in every kernel, so each feed's tokens and KV are bit-identical
     * to a pass of that feed alone, and the ledger is charged feed by
     * feed at each feed's stage, policy and context, in feed order —
     * the order separate passes charge in.
     *
     * Returns the sampled tokens feed by feed, row by row: T per row
     * of a sampleEvery feed, otherwise one (its final position's).
     * Caches must be distinct; a Decode feed needs a non-empty cache.
     */
    std::vector<std::int64_t> forward(std::span<const ForwardFeed> feeds);

    /**
     * Full generation on a local batch cache: one prefill pass over
     * the same-length @p prompts, then decode passes until each
     * sequence has @p l_out generated tokens. Returns (B, l_out)
     * token ids.
     */
    std::vector<std::vector<std::int64_t>>
    generate(const std::vector<std::vector<std::int64_t>> &prompts,
             std::int64_t l_out);

    const TransferLedger &ledger() const { return ledger_; }
    const SimDevice &cpuDevice() const { return cpu_; }
    const SimDevice &gpuDevice() const { return gpu_; }

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
     * The layer loop of forward(): run every decoder layer over the
     * hidden states of @p feeds' rows (feed by feed, each row's T
     * positions in order), appending each feed's KV to its cache,
     * then charge each feed's sublayers at its own context.
     */
    Tensor forwardLayers(std::span<const ForwardFeed> feeds,
                         Tensor hidden);

    /** Gather the embeddings of every feed row at its positions. */
    Tensor embed(std::span<const ForwardFeed> feeds, std::int64_t rows);

    /**
     * Project the hidden rows @p picked (in order) to logits and
     * sample one token per row.
     */
    std::vector<std::int64_t>
    sample(const Tensor &hidden, const std::vector<std::int64_t> &picked);

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

    /** Owned when config_.profileKernels; also the pool observer. */
    std::unique_ptr<obs::KernelProfiler> profiler_;
};

} // namespace runtime
} // namespace lia

#endif // LIA_RUNTIME_EXECUTOR_HH
