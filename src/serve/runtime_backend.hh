/**
 * @file
 * Runtime-backed plan execution: every scheduler-emitted iteration
 * plan runs on the runtime:: functional stack.
 *
 * The backend keeps one single-sequence runtime::KvCache per admitted
 * request and drives runtime::CooperativeExecutor through exactly the
 * work the plan lists: evict-and-recompute (KvCache::clear()) and
 * swap-to-CXL parking (the whole cache copied out as a BF16-width
 * runtime::KvSpan, then cleared; preload() brings it back), then one
 * forward pass per plan over every decode entry and prefill chunk
 * (fresh and recompute) it lists, each sequence feeding its own tokens
 * against its own cache. Every decode entry is a speculative step of
 * k drafts, a plain decode being k = 0: it drafts its k tokens on the
 * draft model first and feeds [last, d1..dk], sampling every position
 * when k > 0; acceptedDrafts() then tells the engine how many held.
 * Prompts are synthesized deterministically from the request id, so
 * the same served workload always decodes the same greedy token
 * streams.
 *
 * The backend mirrors the engine's byte accounting token for token and
 * LIA_ASSERTs the model-vs-runtime invariants on every plan:
 *
 *  - a decoding request's materialised KV is exactly
 *    lIn + generated - 1 tokens, and under the preemptive policy its
 *    byte count equals the engine-side reservation bit for bit;
 *  - the parked swap bytes equal the admission controller's CXL swap
 *    account at all times, and a restored cache fingerprints
 *    identically to the cache that was swapped out;
 *  - a recompute prefill rebuilds the evicted cache bit-identically
 *    (prefix fingerprint check) before generation resumes;
 *  - at drain no request holds live or parked KV (leak check).
 *
 * Any violation panics, so the property fuzzer and the differential
 * harness fail loudly at the first diverging iteration.
 */

#ifndef LIA_SERVE_RUNTIME_BACKEND_HH
#define LIA_SERVE_RUNTIME_BACKEND_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "hw/system.hh"
#include "model/config.hh"
#include "runtime/draft.hh"
#include "runtime/executor.hh"
#include "runtime/kv_cache.hh"
#include "serve/backend.hh"
#include "serve/config.hh"

namespace lia {
namespace serve {

/** Executes iteration plans on the functional runtime. */
class RuntimeBackend : public ExecutionBackend
{
  public:
    /** Work actually executed, for harness cross-checks. */
    struct Counters
    {
        std::uint64_t prefillChunks = 0;   //!< prefill chunks run
        std::uint64_t passCompletions = 0; //!< prefill passes finished
        std::uint64_t decodeSteps = 0;     //!< plain decode steps run
        std::uint64_t evictions = 0;       //!< caches discarded
        std::uint64_t swapOuts = 0;        //!< caches parked in CXL
        std::uint64_t swapIns = 0;         //!< caches restored
        std::uint64_t recomputesVerified = 0;  //!< fingerprint-checked
        double swapOutBytes = 0;
        double swapInBytes = 0;

        // --- Prefix-cache mirror ------------------------------------
        std::uint64_t prefixAttaches = 0;   //!< hits attached to caches
        std::uint64_t prefixHitsVerified = 0;  //!< digest-checked hits
        std::uint64_t prefixAttachTokens = 0;  //!< prefill skipped
        std::uint64_t prefixInserts = 0;    //!< node spans copied in
        std::uint64_t prefixSplits = 0;     //!< node spans split
        std::uint64_t prefixEvictions = 0;  //!< spans dropped (DDR+CXL)
        std::uint64_t prefixDemotions = 0;  //!< spans moved to CXL

        // --- Speculative decoding -----------------------------------
        std::uint64_t specSteps = 0;     //!< draft + verify rounds run
        std::uint64_t specDrafted = 0;   //!< draft tokens proposed
        std::uint64_t specAccepted = 0;  //!< drafts the verify kept
        std::uint64_t specTokens = 0;    //!< tokens verify steps emitted

        /** Tokens a backend must have produced for a finished run. */
        std::uint64_t tokensProduced() const
        {
            return passCompletions + decodeSteps + specTokens;
        }

        /**
         * The execution-side account as a deterministic JSON object,
         * so benches embed the backend mirror next to the analytic
         * serve::Metrics::toJson() instead of hand-picking fields.
         */
        std::string toJson() const;
    };

    /**
     * @param system  hardware the executor charges its work to
     * @param model   served model; also sizes weights and KV caches.
     *                Int4-priced models are fatal: no int4 kernel
     *                exists, so the runtime would not move the bytes
     *                the cost model charges
     * @param config  the serving config the engine runs (policy and
     *                seed drive the accounting discipline and the
     *                deterministic prompt synthesis)
     * @param profile_kernels  collect wall-clock kernel timings
     *                (ExecutorConfig::profileKernels; results are
     *                unchanged either way)
     */
    RuntimeBackend(const hw::SystemConfig &system,
                   const model::ModelConfig &model,
                   const Config &config,
                   bool profile_kernels = false);

    void onPlan(const IterationPlan &plan,
                const std::vector<Request> &requests,
                const AdmissionController &admission) override;
    std::int64_t acceptedDrafts(const Request &request) const override;
    void onFinish(const Request &request) override;
    void onDrain() override;

    /** Deterministic synthetic prompt of @p request. */
    std::vector<std::int64_t> prompt(const Request &request) const;

    /** Greedy output tokens of a finished request. */
    const std::vector<std::int64_t> &outputs(std::uint64_t id) const;

    /**
     * Uninterrupted reference generation for @p request: one
     * monolithic prefill plus plain decode steps on a fresh cache.
     * Preemption, chunking, and swap must not change a request's
     * greedy stream, so this must equal outputs(request.id).
     */
    std::vector<std::int64_t> referenceOutputs(const Request &request);

    /** Live DDR-resident KV bytes across all sequences. */
    double liveKvBytes() const { return ddrBytes_; }

    /** DDR bytes held by mirrored prefix-cache node spans. */
    double cacheDdrBytes() const { return cacheDdrBytes_; }

    /** CXL bytes held by mirrored demoted node spans. */
    double cacheCxlBytes() const { return cacheCxlBytes_; }

    /** KV bytes parked in the swap pool. */
    double swappedKvBytes() const { return swapBytes_; }

    const Counters &counters() const { return counters_; }

    /** Kernel wall-clock profile; nullptr unless profiling is on. */
    const obs::KernelProfiler *kernelProfiler() const
    {
        return executor_.kernelProfiler();
    }

  private:
    /** Per-request runtime state. */
    struct Sequence
    {
        /** Shared with passes_ until the pass's prompt KV is
         *  inserted into the prefix tree. */
        std::shared_ptr<runtime::KvCache> cache;
        std::vector<std::int64_t> prompt;
        std::vector<std::int64_t> outputs;

        std::int64_t passTarget = 0;  //!< tokens this pass prefills
        std::int64_t passDone = 0;    //!< tokens already materialised

        bool recomputing = false;         //!< pass rebuilds evicted KV
        std::int64_t evictedLength = 0;   //!< tokens the pass restores
        std::uint64_t evictedDigest = 0;  //!< their fingerprint

        runtime::KvSpan parked;           //!< swapped-out contents
        std::uint64_t parkedDigest = 0;

        /**
         * Draft-geometry KV trailing the emitted stream (DESIGN.md
         * §11). Built lazily on the first speculative step and
         * discarded whenever the target cache is (evict / swap-out) —
         * the next propose() replays the whole stream to rebuild it.
         * Draft KV models CPU-side memory, so it stays outside the DDR
         * KV byte ledger the admission account mirrors.
         */
        std::unique_ptr<runtime::KvCache> draftCache;

        /** Drafts the latest verify accepted; -1 before any. */
        std::int64_t accepted = -1;
    };

    /**
     * Mirrored payload of one radix-tree node: the actual KV span the
     * engine-side PrefixCache only accounts bytes for, held at BF16
     * width (runtime::KvSpan, exactly span.bytes since served K/V is
     * BF16-rounded), plus the cumulative prompt digests at each block
     * boundary (blockDigests[k] fingerprints prompt tokens
     * [0, startToken + (k+1)*blockTokens)), taken from one
     * KvCache::fingerprints pass at insert, so any block-aligned hit
     * depth verifies against a stored value.
     */
    struct NodePayload
    {
        std::int64_t tokens = 0;
        runtime::KvSpan span;
        std::vector<std::uint64_t> blockDigests;
        bool demoted = false;
    };

    Sequence &sequence(std::uint64_t id);
    double perTokenBytes() const;

    /** Mirror one plan's tree mutations into the node payloads. */
    void applyPrefixOps(const IterationPlan &plan);

    /** Attach @p hit's cached KV into @p seq's fresh cache. */
    void attachHit(const PrefixHit &hit, const Request &request,
                   Sequence &seq);

    model::ModelConfig model_;
    Config config_;
    /** Kernel pool shared with executor_ and fingerprint checks. */
    std::shared_ptr<base::ThreadPool> kernelPool_;
    runtime::CooperativeExecutor executor_;

    /** Draft proposer; null unless config_.spec.enabled. */
    std::unique_ptr<runtime::DraftModel> draft_;

    std::map<std::uint64_t, Sequence> live_;
    std::map<std::uint64_t, std::vector<std::int64_t>> finished_;

    /** Prefix-cache node payloads, keyed by engine-side node id. */
    std::map<std::uint64_t, NodePayload> nodes_;

    /**
     * Caches of the prefill passes the last executed plan completed,
     * keyed by request id: the engine flushes a pass into the radix
     * tree one iteration after it completes, so the next plan's
     * Insert ops source their spans and digests here. onPlan reads
     * the map in applyPrefixOps, clears it, then refills it with its
     * own completions. A plan carrying an Insert is never idle, so
     * onPlan always sees it. The sequence's own cache is staged, not
     * a copy: onPlan applies the inserts before anything else touches
     * a cache, so nothing writes its prompt positions in between, and
     * a sequence finishing in between leaves its cache alive here.
     */
    std::map<std::uint64_t, std::shared_ptr<const runtime::KvCache>>
        passes_;

    double ddrBytes_ = 0;
    double swapBytes_ = 0;
    double cacheDdrBytes_ = 0;
    double cacheCxlBytes_ = 0;
    Counters counters_;
};

} // namespace serve
} // namespace lia

#endif // LIA_SERVE_RUNTIME_BACKEND_HH
