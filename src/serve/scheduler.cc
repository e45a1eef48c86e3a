#include "serve/scheduler.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/logging.hh"
#include "obs/sink.hh"
#include "serve/tracks.hh"

namespace lia {
namespace serve {

using model::Stage;

Scheduler::Scheduler(const Config &config,
                     const IterationCostCache &costs,
                     AdmissionController &admission)
    : config_(config), costs_(costs), admission_(admission)
{
}

void
Scheduler::setPlannerCap(std::int64_t cap)
{
    LIA_ASSERT(cap >= 0, "bad planner cap");
    plannerCap_ = cap;
}

std::int64_t
Scheduler::decodeBatchCap(std::int64_t context) const
{
    if (config_.slo.tbt <= 0)
        return config_.maxBatch;
    const std::int64_t key = costs_.bucketContext(context);
    auto it = tbtCapByContext_.find(key);
    if (it != tbtCapByContext_.end())
        return it->second;

    // Step time grows with batch, so binary-search the largest batch
    // still within the TBT budget; a lone request is always allowed
    // even when it violates (the alternative is starvation).
    std::int64_t lo = 1, hi = config_.maxBatch;
    if (costs_.time(Stage::Decode, hi, key) <= config_.slo.tbt) {
        lo = hi;
    } else {
        while (lo < hi) {
            const std::int64_t mid = (lo + hi + 1) / 2;
            if (costs_.time(Stage::Decode, mid, key) <= config_.slo.tbt)
                lo = mid;
            else
                hi = mid - 1;
        }
    }
    tbtCapByContext_.emplace(key, lo);
    return lo;
}

std::int64_t
Scheduler::specDraftTokensFor(const Request &request) const
{
    if (!config_.spec.enabled || request.inPrefill())
        return 0;
    return std::max<std::int64_t>(
        0, std::min(config_.spec.draftTokens,
                    request.lOut - request.generated - 1));
}

double
Scheduler::swapCost(const Request &request) const
{
    if (!admission_.canSwapOut(request))
        return std::numeric_limits<double>::infinity();
    // The cache crosses the DDR<->CXL channel twice: out now, back in
    // once pressure clears.
    return 2.0 *
           admission_.swapTransferSeconds(request.kvReservedBytes);
}

double
Scheduler::recomputeCost(const Request &request) const
{
    // Rebuilding the cache replays prompt + generated tokens as a
    // single-sequence prefill.
    return costs_.time(Stage::Prefill, 1,
                       std::max<std::int64_t>(request.context(), 1));
}

void
Scheduler::setDecode(IterationPlan &plan, std::vector<std::size_t> decode,
                     const std::vector<Request> &requests) const
{
    plan.decode = std::move(decode);
    for (std::size_t index : plan.decode)
        plan.specDrafts.push_back(specDraftTokensFor(requests[index]));
    plan.decodePriceBatch = static_cast<std::int64_t>(plan.decode.size());
}

std::vector<std::size_t>
Scheduler::continuePrefills(IterationPlan &plan,
                            const std::vector<std::size_t> &active,
                            const std::vector<Request> &requests) const
{
    std::vector<std::size_t> decode;
    for (std::size_t index : active) {
        if (requests[index].inPrefill())
            addChunk(plan, index, requests[index]);
        else
            decode.push_back(index);
    }
    return decode;
}

void
Scheduler::addChunk(IterationPlan &plan, std::size_t index,
                    const Request &request) const
{
    std::int64_t remaining = request.prefillTarget - request.prefilled;
    LIA_ASSERT(remaining > 0, "chunk for a completed prefill");
    if (config_.prefillChunkTokens > 0 &&
        config_.policy != SchedulerPolicy::StaticFifo)
        remaining = std::min(remaining, config_.prefillChunkTokens);
    // History counts every KV token materialised before the chunk —
    // including a prefix-cache hit's attached tokens — so attention
    // pricing and the backend's cache-length lockstep both see the
    // true context.
    plan.chunks.push_back(
        {index, remaining, request.prefixHitTokens + request.prefilled});
}

PrefixMatch
Scheduler::probeCache(IterationPlan &plan, const Request &request) const
{
    PrefixMatch match;
    if (cache_ == nullptr)
        return match;
    ++plan.prefixLookups;
    // Cap at lIn - 1: the prefill pass must process at least one
    // token, because its final position samples the first output.
    return cache_->lookup(cache_->promptOf(request), request.lIn - 1);
}

void
Scheduler::admit(IterationPlan &plan, const PrefixMatch &match,
                 std::size_t index, Request &request)
{
    request.prefillTarget = request.lIn;
    request.prefixHitTokens = 0;
    request.prefixNode = 0;
    if (match.hit()) {
        plan.prefixHits.push_back(cache_->commitHit(match, index));
        request.prefixHitTokens = match.tokens;
        request.prefixNode = match.path.back();
        request.prefillTarget = request.lIn - match.tokens;
        LIA_ASSERT(request.prefillTarget >= 1,
                   "prefix hit left nothing to prefill");
    }
    plan.admit.push_back(index);
    addChunk(plan, index, request);
}

bool
Scheduler::reclaimCache(IterationPlan &plan, double deficit)
{
    if (cache_ == nullptr || deficit <= 0)
        return false;
    auto ops = cache_->makeRoom(deficit);
    if (ops.empty())
        return false;
    plan.prefixOps.insert(plan.prefixOps.end(), ops.begin(), ops.end());
    return true;
}

bool
Scheduler::fitsWithReclaim(IterationPlan &plan, double bytes,
                           double watermark)
{
    if (admission_.fitsBytes(bytes, watermark))
        return true;
    const double deficit =
        admission_.reservedBytes() + admission_.cacheDdrBytes() +
        bytes - admission_.kvBudgetBytes() * (1.0 - watermark);
    if (!reclaimCache(plan, deficit))
        return false;
    return admission_.fitsBytes(bytes, watermark);
}

IterationPlan
Scheduler::next(double now, const SchedulerState &state,
                std::vector<Request> &requests)
{
    if (config_.policy == SchedulerPolicy::Preemptive)
        return nextPreemptive(now, state, requests);

    IterationPlan plan;
    const std::vector<std::size_t> &queue = state.queue;
    const std::vector<std::size_t> &active = state.active;

    if (config_.policy == SchedulerPolicy::StaticFifo) {
        if (!active.empty()) {
            // Cohort in flight: decode everyone still running, priced
            // at the cohort's *initial* size — finished requests do
            // not give their slot back until the whole cohort drains.
            setDecode(plan, active, requests);
            plan.decodePriceBatch = staticCohort_;
            plan.batchCap = config_.maxBatch;
            return plan;
        }
        for (std::size_t index : queue) {
            if (static_cast<std::int64_t>(plan.admit.size()) >=
                config_.maxBatch)
                break;
            Request &request = requests[index];
            if (!fitsWithReclaim(plan, admission_.requestKvBytes(request)))
                break;  // FIFO: the head of the line blocks
            const PrefixMatch match = probeCache(plan, request);
            admission_.reserve(request);
            admit(plan, match, index, request);
        }
        staticCohort_ = static_cast<std::int64_t>(plan.admit.size());
        plan.batchCap = config_.maxBatch;
        return plan;
    }

    // Continuous batching: every decoding request takes one token per
    // iteration, in-flight prefills continue their chunks, and the
    // batch is topped up from the queue.
    const bool slo = config_.policy == SchedulerPolicy::SloAware;
    setDecode(plan, continuePrefills(plan, active, requests), requests);

    std::int64_t cap = config_.maxBatch;
    if (slo && plannerCap_ > 0)
        cap = std::min(cap, plannerCap_);
    if (slo && config_.slo.tbt > 0) {
        // Cap growth where the *next* decode step would overshoot the
        // time-between-tokens budget.
        std::int64_t context = 1;
        for (std::size_t index : plan.decode)
            context =
                std::max(context, requests[index].context() + 1);
        cap = std::min(cap, decodeBatchCap(context));
    }
    plan.batchCap = cap;

    std::int64_t widest_prompt = 1;
    for (std::size_t index : queue) {
        const auto occupancy = static_cast<std::int64_t>(
            active.size() + plan.admit.size());
        if (occupancy >= cap)
            break;
        Request &request = requests[index];
        if (!fitsWithReclaim(plan, admission_.requestKvBytes(request)))
            break;  // FIFO: no skip-ahead past a blocked head
        // Probe before SLO shedding: a hit shrinks the prefill to the
        // suffix, which can rescue a request the cold estimate would
        // shed — hits reprice TTFT.
        const PrefixMatch match = probeCache(plan, request);
        const std::int64_t effective_prompt =
            std::max<std::int64_t>(request.lIn - match.tokens, 1);
        if (slo && config_.slo.ttft > 0) {
            // Shed requests that can no longer make their TTFT target
            // even if prefilled right now with the group so far. The
            // iteration also carries the decode step, bounded by the
            // TBT budget when one is in force.
            const std::int64_t prompt =
                std::max(widest_prompt, effective_prompt);
            const double prefill_estimate = costs_.time(
                Stage::Prefill,
                static_cast<std::int64_t>(plan.admit.size()) + 1,
                prompt);
            const double decode_share =
                config_.slo.tbt > 0 ? config_.slo.tbt : 0;
            if ((now - request.arrival) + prefill_estimate +
                    decode_share >
                config_.slo.ttft) {
                if (config_.sink) {
                    config_.sink->instant(
                        tracks::kScheduler, "shed.slo", now,
                        {obs::arg("request", static_cast<std::int64_t>(
                                                 request.id)),
                         obs::arg("queued_s", now - request.arrival),
                         obs::arg("prefill_estimate_s",
                                  prefill_estimate)});
                }
                plan.shed.push_back(index);
                continue;
            }
        }
        admission_.reserve(request);
        admit(plan, match, index, request);
        widest_prompt = std::max(widest_prompt, effective_prompt);
    }
    return plan;
}

IterationPlan
Scheduler::nextPreemptive(double now, const SchedulerState &state,
                          std::vector<Request> &requests)
{
    IterationPlan plan;
    plan.batchCap = config_.maxBatch;

    // In-flight prefills continue (their KV is already reserved and
    // does not grow); the rest of the batch are decode candidates.
    std::vector<std::size_t> decode =
        continuePrefills(plan, state.active, requests);

    // --- Preemption: make this iteration's KV growth fit -------------
    // Each decode step appends one token of KV per sequence. Victims
    // leave last-admitted-first (active order is admission order), and
    // each picks the cheaper exit per the analytical model: swap both
    // ways across the CXL pool vs a single-sequence recompute prefill.
    const double per_token = admission_.kvBytesPerToken();
    // A speculative decode can append up to k_eff + 1 tokens (full
    // acceptance plus the bonus), so the reservation grows by the
    // worst case up front; the engine shrinks it back to the verified
    // count once acceptance resolves. Spec off makes this exactly one
    // token per decode entry — bit-identical to the legacy plan.
    auto growthTokens = [&]() {
        std::int64_t tokens = 0;
        for (std::size_t index : decode)
            tokens += specDraftTokensFor(requests[index]) + 1;
        return tokens;
    };
    auto growthDeficit = [&]() {
        return admission_.reservedBytes() + admission_.cacheDdrBytes() +
               static_cast<double>(growthTokens()) * per_token -
               admission_.kvBudgetBytes();
    };
    // Live KV wins over cached prefixes: reclaim cold cache nodes
    // before preempting anyone.
    if (growthDeficit() > 0)
        reclaimCache(plan, growthDeficit());
    while (!decode.empty() && growthDeficit() > 0) {
        const std::size_t victim = decode.back();
        decode.pop_back();
        Request &request = requests[victim];
        const double swap = swapCost(request);
        const double recompute = recomputeCost(request);
        const bool swaps = swap <= recompute;
        if (config_.sink) {
            config_.sink->instant(
                tracks::kScheduler,
                swaps ? "preempt.swap_out" : "preempt.evict", now,
                {obs::arg("request",
                          static_cast<std::int64_t>(request.id)),
                 // An unswappable victim prices at infinity; JSON has
                 // no literal for it, so mark it as -1.
                 obs::arg("swap_cost_s",
                          std::isfinite(swap) ? swap : -1.0),
                 obs::arg("recompute_cost_s", recompute),
                 obs::arg("kv_bytes", request.kvReservedBytes)});
        }
        if (swaps) {
            admission_.swapOut(request);
            plan.swapOut.push_back(victim);
        } else {
            admission_.release(request);
            plan.evict.push_back(victim);
        }
    }
    for (std::size_t index : decode)
        admission_.grow(requests[index],
                        specDraftTokensFor(requests[index]) + 1);
    setDecode(plan, std::move(decode), requests);

    auto occupancy = [&]() {
        return static_cast<std::int64_t>(
            plan.decode.size() + plan.chunks.size() +
            plan.swapIn.size());
    };

    // --- Victim re-entry: swapped caches first, then recomputes ------
    // Only when this round preempted nobody (otherwise the freed bytes
    // would bounce straight back) and always against the full budget —
    // the watermark gates new work, not returning work.
    const bool stable = plan.swapOut.empty() && plan.evict.empty();
    if (stable) {
        for (std::size_t index : state.swapped) {
            Request &request = requests[index];
            if (!request.swapReady)
                continue;  // its swap-out is still draining
            if (occupancy() >= config_.maxBatch)
                break;
            if (!fitsWithReclaim(plan, request.kvSwappedBytes))
                break;  // FIFO: oldest swap-out returns first
            admission_.swapIn(request);
            plan.swapIn.push_back(index);
        }
        for (std::size_t index : state.preempted) {
            if (occupancy() >= config_.maxBatch)
                break;
            Request &request = requests[index];
            if (!fitsWithReclaim(plan,
                                 admission_.promptKvBytes(request)))
                break;
            admission_.reservePrompt(request);
            plan.resume.push_back(index);
            addChunk(plan, index, request);
        }
    }

    // --- Optimistic admission ----------------------------------------
    // New requests join against their prompt footprint plus the
    // watermark, and only while no victim is waiting to return —
    // otherwise fresh arrivals would starve preempted work forever.
    if (stable && state.preempted.empty() && state.swapped.empty()) {
        for (std::size_t index : state.queue) {
            if (occupancy() >= config_.maxBatch)
                break;
            Request &request = requests[index];
            request.prefillTarget = request.lIn;
            // promptKvBytes charges the full prompt whether or not the
            // cache will cover a prefix — hits save prefill time, not
            // reservation bytes (the attached prefix is a copy).
            request.prefixHitTokens = 0;
            request.prefixNode = 0;
            // Starvation guard: an empty engine admits its queue head
            // unconditionally (fitsAlone held at arrival) — otherwise
            // a prompt wider than (1 - watermark) of the budget would
            // block the queue forever.
            const double watermark =
                occupancy() == 0 && admission_.reservedBytes() == 0
                    ? 0.0
                    : config_.admissionWatermark;
            if (!fitsWithReclaim(plan,
                                 admission_.promptKvBytes(request),
                                 watermark))
                break;  // FIFO: no skip-ahead past a blocked head
            const PrefixMatch match = probeCache(plan, request);
            admission_.reservePrompt(request);
            admit(plan, match, index, request);
        }
    }
    return plan;
}

} // namespace serve
} // namespace lia
