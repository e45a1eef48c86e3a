/**
 * @file
 * Request lifecycle model of the serving engine.
 *
 * A request moves arrive -> admit -> prefill -> per-token decode ->
 * complete (or is rejected/shed at admission). Under the preemptive
 * scheduler a running request can additionally be preempted when KV
 * pressure breaches the budget: its cache is either swapped to the
 * CXL pool (Swapped, then SwappingIn while the swap-in transfer
 * streams it back) or discarded
 * (Preempted, rebuilt later by a recompute prefill over prompt plus
 * already-generated tokens). Every transition is timestamped in
 * simulated seconds so the metrics layer can report TTFT,
 * time-between-tokens, and end-to-end latency per request.
 */

#ifndef LIA_SERVE_REQUEST_HH
#define LIA_SERVE_REQUEST_HH

#include <cstdint>

namespace lia {
namespace serve {

/** Lifecycle state of one served request. */
enum class RequestState
{
    Queued,      //!< arrived, waiting for admission
    Prefilling,  //!< admitted, prompt being processed this iteration
    Decoding,    //!< generating output tokens
    Preempted,   //!< KV evicted under pressure, awaiting recompute
    Swapped,     //!< KV swapped to the CXL pool, awaiting swap-in
    SwappingIn,  //!< swap-in transfer in flight, rejoins on arrival
    Finished,    //!< all lOut tokens produced
    Rejected,    //!< never admitted (capacity or SLO shedding)
};

const char *toString(RequestState state);

/** One request flowing through the serving engine. */
struct Request
{
    std::uint64_t id = 0;
    std::int64_t lIn = 0;     //!< prompt tokens
    std::int64_t lOut = 0;    //!< output tokens demanded
    double arrival = 0;       //!< simulated arrival time, seconds

    RequestState state = RequestState::Queued;
    std::int64_t generated = 0;  //!< output tokens produced so far

    double admitTime = -1;       //!< entered the running batch
    double firstTokenTime = -1;  //!< prefill completed (token 1)
    double finishTime = -1;      //!< last token produced
    double lastTokenTime = -1;   //!< most recent token (TBT gaps)

    /** KV bytes reserved against the DDR budget while admitted. */
    double kvReservedBytes = 0;

    /** KV bytes parked in the CXL swap pool while Swapped. */
    double kvSwappedBytes = 0;

    // --- Chunked-prefill / preemption bookkeeping --------------------

    /**
     * Prompt tokens this prefill pass must process: lIn on first
     * admission, lIn + generated after an evict-and-recompute (the
     * generated tokens are re-prefilled to rebuild their KV).
     */
    std::int64_t prefillTarget = 0;

    /** Prompt tokens of the current pass already processed. */
    std::int64_t prefilled = 0;

    /** Whether a swap-out transfer has drained (swap-in eligible). */
    bool swapReady = false;

    // --- Prefix-cache bookkeeping ------------------------------------

    /**
     * Prompt pool this request draws its shared prefix from (-1 = an
     * independent prompt). Pool membership determines the synthesized
     * token stream, so two requests of one pool share a bit-identical
     * prompt prefix.
     */
    std::int64_t poolId = -1;

    /** Shared-prefix tokens of the prompt (pool requests only). */
    std::int64_t sharedLen = 0;

    /**
     * Prompt tokens restored from the prefix cache on admission; the
     * prefill pass only processes the remaining suffix. Reset to zero
     * by evict-and-recompute (the rebuild pass ignores the cache so
     * its accounting matches the analytic recompute price).
     */
    std::int64_t prefixHitTokens = 0;

    /** Pinned terminal radix node while the hit's pass runs (0 = none). */
    std::uint64_t prefixNode = 0;

    std::int64_t preemptions = 0;  //!< times evicted or swapped out
    std::int64_t recomputes = 0;   //!< evictions repaid by re-prefill
    std::int64_t swapOuts = 0;     //!< preemptions served by CXL swap

    // --- Speculative decoding (DESIGN.md §11) ------------------------
    std::int64_t specSteps = 0;     //!< draft+verify iterations run
    std::int64_t specDrafted = 0;   //!< draft tokens proposed
    std::int64_t specAccepted = 0;  //!< draft tokens verified correct

    /** Current KV context length (prompt + generated tokens). */
    std::int64_t context() const { return lIn + generated; }

    /** Whether the current prefill pass is still incomplete. */
    bool inPrefill() const { return prefilled < prefillTarget; }

    /** Whether all demanded tokens have been produced. */
    bool done() const { return generated >= lOut; }

    // --- Per-request metrics (valid once Finished) -------------------

    /** Seconds queued before joining the batch. */
    double queueWait() const { return admitTime - arrival; }

    /** Time-to-first-token: arrival to end of prefill. */
    double ttft() const { return firstTokenTime - arrival; }

    /** End-to-end response time. */
    double responseTime() const { return finishTime - arrival; }

    /** Mean time between tokens after the first. */
    double meanTbt() const
    {
        if (lOut <= 1)
            return 0;
        return (finishTime - firstTokenTime) /
               static_cast<double>(lOut - 1);
    }
};

} // namespace serve
} // namespace lia

#endif // LIA_SERVE_REQUEST_HH
