/**
 * @file
 * Iteration-level scheduler (Orca-style continuous batching).
 *
 * Between engine iterations the scheduler decides which queued
 * requests join the running batch (FIFO, KV-admission gated) and which
 * active requests take a decode step. Four disciplines are
 * implemented: the static FIFO baseline (cohorts run to completion,
 * finished slots wasted), plain continuous batching, an SLO-aware
 * variant that caps decode-batch growth from the engine's latency
 * estimates and sheds requests that can no longer meet their TTFT
 * target, and a preemption-capable variant with vLLM-style optimistic
 * admission that swaps or evicts victims when projected KV growth
 * breaches the budget — choosing swap-to-CXL vs evict-and-recompute
 * by whichever the analytical model prices cheaper.
 *
 * Prefill work is expressed as chunks: a monolithic prefill is one
 * full-prompt chunk, and with Config::prefillChunkTokens set, long
 * prompts split across iterations and interleave with the running
 * batch's decode steps.
 *
 * The scheduler is pure decision logic over request indices — no
 * simulated time advances here — so its invariants (FIFO order, batch
 * and KV caps, SLO caps, preemption accounting) are unit-testable
 * without the DES.
 */

#ifndef LIA_SERVE_SCHEDULER_HH
#define LIA_SERVE_SCHEDULER_HH

#include <cstdint>
#include <map>
#include <vector>

#include "serve/admission.hh"
#include "serve/config.hh"
#include "serve/cost_cache.hh"
#include "serve/prefix_cache.hh"
#include "serve/request.hh"

namespace lia {
namespace serve {

/** One chunked-prefill work item of an iteration. */
struct PrefillChunk
{
    std::size_t index = 0;      //!< request being prefilled
    std::int64_t tokens = 0;    //!< prompt tokens processed this chunk
    std::int64_t history = 0;   //!< KV tokens materialised before it
};

/** One iteration's worth of scheduling decisions. */
struct IterationPlan
{
    /** Queue indices admitted this iteration (enter prefill). */
    std::vector<std::size_t> admit;

    /** Queue indices shed by SLO admission control (rejected). */
    std::vector<std::size_t> shed;

    /** Preempted indices resuming their recompute prefill. */
    std::vector<std::size_t> resume;

    /** Prefill work items executed this iteration. */
    std::vector<PrefillChunk> chunks;

    /** Active indices taking one decode step. */
    std::vector<std::size_t> decode;

    /**
     * Speculative draft tokens per decode entry, always parallel to
     * decode: every decode entry is a speculative step, and a plain
     * decode is its k = 0 case. Entry i is k_eff for decode[i]:
     * Config::spec.draftTokens clamped so even full acceptance plus
     * the bonus token never overshoots the request's lOut, and 0
     * whenever speculation is off.
     */
    std::vector<std::int64_t> specDrafts;

    /**
     * Draft tokens accepted per decode entry (parallel to decode once
     * filled). Filled by the engine's speculation resolution — the
     * backend's executed verify or the acceptance oracle — after the
     * backend's onPlan ran the plan and before the iteration is
     * priced; a k = 0 entry resolves to 0. Entry i emits
     * specAccepted[i] + 1 tokens.
     */
    std::vector<std::int64_t> specAccepted;

    /** Victims whose KV moves to the CXL swap pool this iteration. */
    std::vector<std::size_t> swapOut;

    /** Victims whose KV is discarded for a later recompute. */
    std::vector<std::size_t> evict;

    /** Swapped indices whose KV transfers back to DDR. */
    std::vector<std::size_t> swapIn;

    /**
     * Prefix-cache mutations this iteration, in execution order:
     * insert flushes first (prepended by the engine), then the
     * scheduler's reclaim traffic. The runtime backend replays them
     * verbatim to keep its KV payloads in lockstep with the tree.
     */
    std::vector<PrefixOp> prefixOps;

    /** Admissions that matched a cached prefix this iteration. */
    std::vector<PrefixHit> prefixHits;

    /** Cache probes performed while composing this iteration. */
    std::int64_t prefixLookups = 0;

    /**
     * Batch size the decode part is priced at. Equals decode.size()
     * for continuous policies; under static batching it stays at the
     * cohort's initial size — finished requests keep occupying slots.
     */
    std::int64_t decodePriceBatch = 0;

    /** Batch cap in force when the plan was made (for reporting). */
    std::int64_t batchCap = 0;

    /** Whether the iteration performs no compute work. */
    bool computeIdle() const { return chunks.empty() && decode.empty(); }

    /** Whether the iteration performs no work at all. */
    bool idle() const
    {
        return computeIdle() && swapOut.empty() && evict.empty() &&
               swapIn.empty() && prefixOps.empty();
    }
};

/** The engine's request pools, which the scheduler reads in place;
 *  a request sits in the pool its state names (DESIGN.md §5). */
struct SchedulerState
{
    /** Waiting request indices, FIFO order. */
    std::vector<std::size_t> queue;

    /** Admitted unfinished indices (Prefilling or Decoding). */
    std::vector<std::size_t> active;

    /** Evicted indices awaiting a recompute slot, FIFO order. */
    std::vector<std::size_t> preempted;

    /** Swapped-out indices; drained ones (swapReady) may swap in. */
    std::vector<std::size_t> swapped;
};

/** Batch-composition policy engine. */
class Scheduler
{
  public:
    Scheduler(const Config &config, const IterationCostCache &costs,
              AdmissionController &admission);

    /**
     * Decide the next iteration.
     *
     * @param now       current simulated time (drives SLO shedding)
     * @param state     queue / active / preempted / swapped pools
     * @param requests  backing store; admitted requests get their KV
     *                  reserved here, victims get theirs released or
     *                  moved to the swap account
     */
    IterationPlan next(double now, const SchedulerState &state,
                       std::vector<Request> &requests);

    /**
     * Largest decode batch whose step time stays within the
     * time-between-tokens target at @p context (>= 1 so a lone
     * request is never starved). maxBatch when no TBT target is set.
     */
    std::int64_t decodeBatchCap(std::int64_t context) const;

    /**
     * Analytical preemption pricing: seconds to swap @p request's
     * live KV out and eventually back in (both directions on the CXL
     * pool bandwidth), vs seconds to recompute its context with a
     * single-sequence prefill. Used to pick each victim's exit.
     */
    double swapCost(const Request &request) const;
    double recomputeCost(const Request &request) const;

    /**
     * Draft tokens a speculative decode step of @p request proposes:
     * Config::spec.draftTokens clamped to the request's remaining
     * output budget minus the guaranteed correction token (so even
     * full acceptance cannot overshoot lOut, and the verify pass
     * never grows the cache past lIn + lOut - 1). 0 when speculation
     * is off, the request is mid-prefill, or one token finishes it.
     */
    std::int64_t specDraftTokensFor(const Request &request) const;

    /** Static cap from the capacity planner (0 disables). */
    void setPlannerCap(std::int64_t cap);
    std::int64_t plannerCap() const { return plannerCap_; }

    /**
     * Attach the engine's prefix cache (null disables). Admissions
     * then probe for shared prefixes (hits prefill only the suffix)
     * and blocked admissions reclaim cold cache bytes before any
     * live request is preempted.
     */
    void setPrefixCache(PrefixCache *cache) { cache_ = cache; }

  private:
    /**
     * Make @p decode @p plan's decode list, each entry with its
     * specDraftTokensFor() draft count (0: a plain step), priced at
     * its own size.
     */
    void setDecode(IterationPlan &plan, std::vector<std::size_t> decode,
                   const std::vector<Request> &requests) const;

    /** Append a chunk to @p plan for every in-flight prefill of
     *  @p active; return the rest, in order: they decode. */
    std::vector<std::size_t>
    continuePrefills(IterationPlan &plan,
                     const std::vector<std::size_t> &active,
                     const std::vector<Request> &requests) const;

    /** Append @p index's next prefill chunk to @p plan. */
    void addChunk(IterationPlan &plan, std::size_t index,
                  const Request &request) const;

    /** Probe the cache for @p request's longest shared prefix. */
    PrefixMatch probeCache(IterationPlan &plan,
                           const Request &request) const;

    /** Admit @p request: commit @p match on it (none on a miss), then
     *  append it and its first prefill chunk to @p plan. */
    void admit(IterationPlan &plan, const PrefixMatch &match,
               std::size_t index, Request &request);

    /** Reclaim @p deficit cache bytes into @p plan; false if nothing
     *  could be reclaimed (no cache, or no unpinned victims). */
    bool reclaimCache(IterationPlan &plan, double deficit);

    /** fitsBytes() with a one-shot cache-reclaim retry. */
    bool fitsWithReclaim(IterationPlan &plan, double bytes,
                         double watermark = 0);

    IterationPlan nextPreemptive(double now,
                                 const SchedulerState &state,
                                 std::vector<Request> &requests);

    const Config &config_;
    const IterationCostCache &costs_;
    AdmissionController &admission_;
    PrefixCache *cache_ = nullptr;

    std::int64_t staticCohort_ = 0;  //!< initial size of the running cohort
    std::int64_t plannerCap_ = 0;
    mutable std::map<std::int64_t, std::int64_t> tbtCapByContext_;
};

} // namespace serve
} // namespace lia

#endif // LIA_SERVE_SCHEDULER_HH
