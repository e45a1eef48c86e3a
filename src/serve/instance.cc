#include "serve/instance.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "core/capacity_planner.hh"
#include "obs/sink.hh"
#include "serve/backend.hh"
#include "serve/slo_monitor.hh"

namespace lia {
namespace serve {

using model::Stage;

namespace {

/** SplitMix64 — the deterministic per-draft acceptance hash. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Analytic acceptance draw: each draft survives independently with
 * probability @p accept_rate, and the accepted count is the leading
 * run of survivors — the same per-draft Bernoulli chain
 * core::expectedSpeculativeTokens() prices. Keyed on (seed, request,
 * step, draft) so runs are deterministic at any thread count and two
 * identically-seeded runs take bit-identical scheduling decisions.
 */
std::int64_t
oracleAccepted(std::uint64_t seed, std::uint64_t request_id,
               std::uint64_t spec_step, std::int64_t k,
               double accept_rate)
{
    std::int64_t accepted = 0;
    while (accepted < k) {
        const std::uint64_t h = splitmix64(
            splitmix64(splitmix64(seed ^ 0x5bec0de5ULL) ^
                       request_id) ^
            (spec_step * 0x10001ULL +
             static_cast<std::uint64_t>(accepted)));
        const double u =
            static_cast<double>(h >> 11) * 0x1.0p-53;
        if (u >= accept_rate)
            break;
        ++accepted;
    }
    return accepted;
}

} // namespace

core::EngineConfig
pricingEngineConfig(const hw::SystemConfig &system,
                    const model::ModelConfig &model,
                    const Config &config)
{
    core::EngineConfig cfg;
    cfg.costOptions.executionAwareObjective = true;
    cfg.autoMemoryPolicy = config.cxlSpill && system.cxl.present();
    // Always wire the draft companion: a shared cost cache serves
    // spec-on and spec-off runs alike, and the draft engine only
    // prices when a scenario actually carries draft tokens.
    cfg.specDraftModel = model::draftModelConfig(model);
    return cfg;
}

std::int64_t
plannerBatchCap(const hw::SystemConfig &system,
                const model::ModelConfig &model, const Config &config)
{
    if (config.policy != SchedulerPolicy::SloAware || config.slo.e2e <= 0)
        return 0;
    const std::int64_t typical_out =
        config.trace == trace::TraceKind::Code
            ? 32
            : (config.trace == trace::TraceKind::Conversation ? 256
                                                              : 144);
    core::PlannerRequest request;
    request.lOut =
        std::min<std::int64_t>(typical_out, config.maxContext / 4);
    request.lIn = (config.maxContext - request.lOut) / 2;
    request.latencySlo = config.slo.e2e;
    request.maxBatch = config.maxBatch;
    const auto planned = core::CapacityPlanner(system, model).plan(request);
    return planned.feasible ? planned.best.batch : 0;
}

EngineInstance::EngineInstance(const hw::SystemConfig &system,
                               const model::ModelConfig &model,
                               Config config,
                               const IterationCostCache &costs,
                               sim::EventQueue &events,
                               tracks::Namespace ns)
    : config_(std::move(config)), costs_(costs), events_(events),
      ns_(std::move(ns)), admission_(system, model, config_),
      scheduler_(config_, costs_, admission_),
      swapChannel_(events_, "ddr-cxl-swap",
                   admission_.swapBandwidth(),
                   admission_.swapLatency()),
      sink_(config_.sink), monitor_(config_.sloMonitor)
{
    if (config_.prefix.enabled) {
        PrefixCache::Pricing pricing;
        pricing.recomputeSeconds = [this](std::int64_t tokens) {
            return costs_.time(Stage::Prefill, 1,
                               std::max<std::int64_t>(tokens, 1));
        };
        if (admission_.swapBandwidth() > 0) {
            pricing.transferSeconds = [this](double bytes) {
                return admission_.swapTransferSeconds(bytes);
            };
        }
        prefixCache_ = std::make_unique<PrefixCache>(
            model, config_, admission_, std::move(pricing));
        scheduler_.setPrefixCache(prefixCache_.get());
    }
    if (sink_) {
        sink_->setTrackName(ns_.iterations(), ns_.engineProcess,
                            "iterations");
        sink_->setTrackName(ns_.scheduler(), ns_.engineProcess,
                            "scheduler");
        sink_->setTrackName(ns_.swapChannel(), ns_.engineProcess,
                            "swap-channel");
        swapChannel_.instrument(sink_, ns_.swapChannel());
    }
}

void
EngineInstance::setPlannerCap(std::int64_t cap)
{
    scheduler_.setPlannerCap(cap);
}

std::size_t
EngineInstance::submit(std::int64_t l_in, std::int64_t l_out,
                       std::int64_t pool_id, std::int64_t shared_tokens)
{
    const std::size_t index = requests_.size();
    Request request;
    request.id = index;
    request.lIn = l_in;
    request.lOut = l_out;
    request.poolId = pool_id;
    request.sharedLen = shared_tokens;
    request.arrival = events_.now();
    requests_.push_back(request);
    arrival(index);
    return index;
}

std::size_t
EngineInstance::outstanding() const
{
    return requests_.size() -
           (metrics_.completed + metrics_.rejected());
}

double
EngineInstance::kvLoad() const
{
    double demand = admission_.reservedBytes();
    for (std::size_t index : waiting_)
        demand += admission_.requestKvBytes(requests_[index]);
    const double budget = admission_.kvBudgetBytes();
    return budget > 0 ? demand / budget : 0.0;
}

double
EngineInstance::estimatedQueueDelay() const
{
    double delay = 0;
    for (std::size_t index : waiting_) {
        const Request &request = requests_[index];
        delay += costs_.chunkTime(
            1, 0, std::max<std::int64_t>(request.lIn, 1));
    }
    if (!active_.empty()) {
        std::int64_t context = 1;
        for (std::size_t index : active_)
            context = std::max(context, requests_[index].context());
        delay += costs_.time(Stage::Decode,
                             static_cast<std::int64_t>(active_.size()),
                             context);
    }
    // Admission stalls when the byte account is nearly full: stretch
    // the estimate by the remaining headroom (capped at 10x so one
    // saturated replica never reads as infinitely slow).
    const double budget = admission_.kvBudgetBytes();
    if (budget > 0) {
        const double occupancy = admission_.reservedBytes() / budget;
        delay *= 1.0 / std::max(0.1, 1.0 - occupancy);
    }
    return delay;
}

/**
 * Close the open lifecycle span of @p request and open the next
 * one — request tracks carry exactly one state span at a time.
 */
void
EngineInstance::spanTransition(const Request &request, const char *next,
                               double now)
{
    sink_->endSpan(ns_.request(request.id), now);
    sink_->beginSpan(ns_.request(request.id), next, now);
}

void
EngineInstance::arrival(std::size_t index)
{
    Request &request = requests_[index];
    if (sink_) {
        const obs::Track track = ns_.request(request.id);
        sink_->setTrackName(track, ns_.requestProcess,
                            "req " + std::to_string(request.id));
        sink_->instant(track, "arrive", events_.now(),
                       {obs::arg("l_in", request.lIn),
                        obs::arg("l_out", request.lOut)});
    }
    if (!admission_.fitsAlone(request)) {
        // Can never fit the KV budget, not even alone.
        request.state = RequestState::Rejected;
        ++metrics_.rejectedCapacity;
        if (sink_)
            sink_->instant(ns_.request(request.id),
                           "reject.capacity", events_.now());
        return;
    }
    if (sink_)
        sink_->beginSpan(ns_.request(request.id), "queued",
                         events_.now());
    waiting_.push_back(index);
    if (!inFlight_)
        startIteration();
}

/** A request emitted one token: record the inter-token gap. */
void
EngineInstance::tokenEmitted(Request &request, double now)
{
    ++metrics_.tokensGenerated;
    if (request.lastTokenTime >= 0) {
        const double gap = now - request.lastTokenTime;
        metrics_.tokenGap.add(gap);
        metrics_.tokenGapHist.add(gap);
        if (monitor_)
            monitor_->onTokenGap(now, gap);
    }
    request.lastTokenTime = now;
}

/** The running pools must stay pairwise disjoint per request. */
void
EngineInstance::checkStateExclusivity() const
{
    for (std::size_t index : active_) {
        const RequestState s = requests_[index].state;
        LIA_ASSERT(s == RequestState::Prefilling ||
                       s == RequestState::Decoding,
                   "active request in state ", toString(s));
    }
    for (std::size_t index : preempted_)
        LIA_ASSERT(requests_[index].state == RequestState::Preempted,
                   "preempted pool holds a ",
                   toString(requests_[index].state), " request");
    for (std::size_t index : swapped_)
        LIA_ASSERT(requests_[index].state == RequestState::Swapped,
                   "swap pool holds a ",
                   toString(requests_[index].state), " request");
}

void
EngineInstance::startIteration()
{
    const double now = events_.now();
    const std::size_t depth = waiting_.size();
    checkStateExclusivity();

    SchedulerState state;
    state.queue = waiting_;
    state.active = active_;
    state.preempted = preempted_;
    state.swappedTotal = swapped_.size();
    for (std::size_t index : swapped_)
        if (requests_[index].swapReady)
            state.swappable.push_back(index);

    // Flush completed passes into the prefix tree *before* the
    // scheduler probes it: this iteration's lookups then match the
    // post-split tree, so the backend can mirror all structural ops
    // first and attach all hits after.
    std::vector<PrefixOp> insertOps;
    if (prefixCache_) {
        for (std::size_t index : pendingInserts_) {
            const Request &request = requests_[index];
            auto ops = prefixCache_->insert(
                prefixCache_->promptOf(request), request.id);
            insertOps.insert(insertOps.end(), ops.begin(), ops.end());
        }
        pendingInserts_.clear();
    }

    IterationPlan plan = scheduler_.next(now, state, requests_);
    plan.prefixOps.insert(plan.prefixOps.begin(), insertOps.begin(),
                          insertOps.end());

    for (std::size_t index : plan.shed) {
        requests_[index].state = RequestState::Rejected;
        ++metrics_.shedSlo;
        if (sink_) {
            const obs::Track track =
                ns_.request(requests_[index].id);
            sink_->endSpan(track, now);  // close "queued"
            sink_->instant(track, "shed.slo", now);
        }
    }
    for (std::size_t index : plan.admit) {
        Request &request = requests_[index];
        request.state = RequestState::Prefilling;
        request.admitTime = now;
        active_.push_back(index);
        if (sink_)
            spanTransition(request, "prefill", now);
    }
    if (!plan.shed.empty() || !plan.admit.empty()) {
        waiting_.erase(
            std::remove_if(waiting_.begin(), waiting_.end(),
                           [this](std::size_t index) {
                               return requests_[index].state !=
                                      RequestState::Queued;
                           }),
            waiting_.end());
    }

    // --- Preemption traffic ---------------------------------------
    for (std::size_t index : plan.evict) {
        Request &request = requests_[index];
        request.state = RequestState::Preempted;
        request.prefillTarget = request.context();
        request.prefilled = 0;
        // The recompute prefill rebuilds every token itself — any
        // prefix attached at first admission is gone with the KV.
        request.prefixHitTokens = 0;
        ++request.preemptions;
        ++request.recomputes;
        ++metrics_.preemptions;
        ++metrics_.recomputes;
        preempted_.push_back(index);
        if (sink_)
            spanTransition(request, "preempted", now);
    }
    for (std::size_t index : plan.swapOut) {
        Request &request = requests_[index];
        request.state = RequestState::Swapped;
        request.swapReady = false;
        ++request.preemptions;
        ++request.swapOuts;
        ++metrics_.preemptions;
        ++metrics_.swapOuts;
        metrics_.swapOutBytes += request.kvSwappedBytes;
        swapped_.push_back(index);
        if (sink_)
            spanTransition(request, "swapped", now);
        swapChannel_.transfer(
            request.kvSwappedBytes,
            [this, index](sim::Tick) {
                requests_[index].swapReady = true;
                // A drained swap-out may be the only thing the
                // idle engine was waiting on.
                if (!inFlight_)
                    startIteration();
            });
    }
    if (!plan.evict.empty() || !plan.swapOut.empty()) {
        active_.erase(
            std::remove_if(active_.begin(), active_.end(),
                           [this](std::size_t index) {
                               const RequestState s =
                                   requests_[index].state;
                               return s ==
                                          RequestState::Preempted ||
                                      s == RequestState::Swapped;
                           }),
            active_.end());
    }
    for (std::size_t index : plan.resume) {
        requests_[index].state = RequestState::Prefilling;
        active_.push_back(index);
        if (sink_)
            spanTransition(requests_[index], "recompute", now);
    }
    if (!plan.resume.empty()) {
        preempted_.erase(
            std::remove_if(preempted_.begin(), preempted_.end(),
                           [this](std::size_t index) {
                               return requests_[index].state !=
                                      RequestState::Preempted;
                           }),
            preempted_.end());
    }
    for (std::size_t index : plan.swapIn) {
        // The cache streams back while this iteration computes; the
        // request rejoins the batch when its transfer drains.
        Request &request = requests_[index];
        ++metrics_.swapIns;
        metrics_.swapInBytes += request.kvReservedBytes;
        if (sink_) {
            sink_->instant(
                ns_.request(request.id), "swap_in.start", now,
                {obs::arg("bytes", request.kvReservedBytes)});
        }
        swapChannel_.transfer(
            request.kvReservedBytes,
            [this, index](sim::Tick) { swapInArrived(index); });
    }
    if (!plan.swapIn.empty()) {
        swapped_.erase(
            std::remove_if(swapped_.begin(), swapped_.end(),
                           [&plan](std::size_t index) {
                               return std::find(
                                          plan.swapIn.begin(),
                                          plan.swapIn.end(),
                                          index) !=
                                      plan.swapIn.end();
                           }),
            swapped_.end());
    }

    if (prefixCache_)
        applyPrefixPlan(plan);

    // Execute the committed plan: all request pools and the
    // admission byte account reflect it at this point, but no
    // engine-side progress counters have advanced yet.
    if (backend_ && !plan.idle())
        backend_->onPlan(plan, requests_, admission_);
    // Speculation resolves after execution: the backend verified
    // every speculative entry inside onPlan's forward pass.
    resolveSpeculation(plan);

    if (plan.computeIdle()) {
        inFlight_ = false;
        // A bookkeeping-only round (victims out, nothing to run)
        // replans immediately: the freed budget lets preempted
        // work resume in the same instant. Terminates because
        // each replan either schedules compute, goes fully idle
        // (swap completions re-kick later), or shrinks the active
        // set further. Fully idle rounds just wait.
        if (!plan.idle())
            startIteration();
        return;
    }
    inFlight_ = true;

    // Price the iteration once: the chunk batch at its widest chunk
    // and deepest history, the decode batch at its longest context.
    const core::IterationEstimate *chunkCost = nullptr;
    const core::IterationEstimate *decodeCost = nullptr;
    double duration = 0;
    if (!plan.chunks.empty()) {
        std::int64_t chunkTokens = 1, chunkHistory = 0;
        for (const PrefillChunk &chunk : plan.chunks) {
            chunkTokens = std::max(chunkTokens, chunk.tokens);
            chunkHistory = std::max(chunkHistory, chunk.history);
        }
        chunkCost = &costs_.chunkEstimate(
            static_cast<std::int64_t>(plan.chunks.size()), chunkHistory,
            chunkTokens);
        duration += chunkCost->time;
        metrics_.prefillChunks += plan.chunks.size();
    }
    if (!plan.decode.empty()) {
        std::int64_t decodeContext = 1;
        for (std::size_t index : plan.decode)
            decodeContext = std::max(decodeContext,
                                     requests_[index].context());
        // A speculative iteration prices draft + verify at the widest
        // draft length in the batch (entries near their lOut may
        // carry fewer); a batch with no drafts is a plain decode.
        std::int64_t spec_k = 0;
        for (std::int64_t k : plan.specDrafts)
            spec_k = std::max(spec_k, k);
        decodeCost = spec_k > 0
                         ? &costs_.specEstimate(plan.decodePriceBatch,
                                                decodeContext, spec_k)
                         : &costs_.estimate(Stage::Decode,
                                            plan.decodePriceBatch,
                                            decodeContext);
        duration += decodeCost->time;
    }
    LIA_ASSERT(duration > 0, "iteration priced at zero time");

    metrics_.queueDepth.add(static_cast<double>(depth));
    metrics_.batchOccupancy.add(static_cast<double>(active_.size()));
    if (admission_.kvBudgetBytes() > 0)
        metrics_.kvOccupancy.add(admission_.reservedBytes() /
                                 admission_.kvBudgetBytes());
    metrics_.kvReservedPeakBytes =
        std::max(metrics_.kvReservedPeakBytes,
                 admission_.reservedBytes());
    ++metrics_.iterations;
    metrics_.busyTime += duration;

    if (sink_)
        emitIteration(plan, now, duration, depth, chunkCost,
                      decodeCost);

    events_.schedule(now + duration,
                     [this, plan = std::move(plan)]() {
                         completeIteration(plan);
                     });
}

/**
 * One iteration span with the analytical cost attribution, plus
 * the per-iteration counter samples. Duration is known when the
 * iteration is scheduled and iterations run serially, so begin
 * and end can be emitted together and stay per-track monotone.
 * @p chunk_cost and @p decode_cost are the estimates the iteration
 * was priced at (null when it has no chunks or no decodes).
 */
void
EngineInstance::emitIteration(const IterationPlan &plan, double now,
                              double duration, std::size_t depth,
                              const core::IterationEstimate *chunk_cost,
                              const core::IterationEstimate *decode_cost)
{
    core::Breakdown breakdown;
    double pcie_bytes = 0;
    for (const core::IterationEstimate *est : {chunk_cost, decode_cost}) {
        if (est == nullptr)
            continue;
        breakdown.cpuTime += est->breakdown.cpuTime;
        breakdown.gpuTime += est->breakdown.gpuTime;
        breakdown.comTime += est->breakdown.comTime;
        pcie_bytes += est->pcieBytes;
    }
    std::int64_t spec_drafted = 0, spec_accepted = 0;
    for (std::size_t i = 0; i < plan.specDrafts.size(); ++i) {
        spec_drafted += plan.specDrafts[i];
        spec_accepted += plan.specAccepted[i];
    }

    // Counters first (they sample `now`): the iteration span ends
    // at now + duration, so this order keeps the whole track's
    // event stream monotone in emission order — the schema test
    // checks exactly that.
    sink_->counter(ns_.iterations(), "queue_depth", now,
                   static_cast<double>(depth));
    sink_->counter(ns_.iterations(), "batch_occupancy", now,
                   static_cast<double>(active_.size()));
    sink_->counter(ns_.iterations(), "kv_reserved_bytes", now,
                   admission_.reservedBytes());
    if (admission_.kvBudgetBytes() > 0)
        sink_->counter(ns_.iterations(), "kv_occupancy", now,
                       admission_.reservedBytes() /
                           admission_.kvBudgetBytes());

    obs::Args args{
        obs::arg("iteration", static_cast<std::int64_t>(
                                  metrics_.iterations)),
        obs::arg("duration_s", duration),
        obs::arg("decode", static_cast<std::int64_t>(
                               plan.decode.size())),
        obs::arg("decode_price_batch", plan.decodePriceBatch),
        obs::arg("chunks", static_cast<std::int64_t>(
                               plan.chunks.size())),
        obs::arg("admit", static_cast<std::int64_t>(
                              plan.admit.size())),
        obs::arg("preempt", static_cast<std::int64_t>(
                                plan.evict.size() +
                                plan.swapOut.size())),
        obs::arg("cpu_s", breakdown.cpuTime),
        obs::arg("gpu_s", breakdown.gpuTime),
        obs::arg("com_s", breakdown.comTime),
        obs::arg("pcie_bytes", pcie_bytes)};
    // Spec args only when the feature is on: spec-off traces stay
    // byte-identical to the pre-speculation schema.
    if (config_.spec.enabled) {
        args.push_back(obs::arg("spec_drafted", spec_drafted));
        args.push_back(obs::arg("spec_accepted", spec_accepted));
        sink_->counter(ns_.iterations(), "spec_accepted_tokens", now,
                       static_cast<double>(
                           metrics_.specAcceptedTokens));
    }
    // Gated on the monitor, not just the sink, so monitor-less traces
    // keep their schema.
    if (monitor_)
        sink_->counter(ns_.iterations(), "slo_pressure", now,
                       monitor_->pressure(now));
    sink_->beginSpan(ns_.iterations(), "iteration", now,
                     std::move(args));
    sink_->endSpan(ns_.iterations(), now + duration);
}

void
EngineInstance::resolveSpeculation(IterationPlan &plan)
{
    LIA_ASSERT(plan.specDrafts.size() == plan.decode.size(),
               "spec drafts out of step with the decode list");
    plan.specAccepted.reserve(plan.decode.size());
    for (std::size_t i = 0; i < plan.decode.size(); ++i) {
        Request &request = requests_[plan.decode[i]];
        const std::int64_t k = plan.specDrafts[i];
        if (k == 0) {
            // Plain decode step: speculation is off, or one token
            // finishes the request.
            plan.specAccepted.push_back(0);
            continue;
        }
        std::int64_t accepted =
            backend_ ? backend_->acceptedDrafts(request) : -1;
        if (accepted < 0) {
            // Analytic path: the replay oracle when the harness
            // installed one, the modeled acceptance draw otherwise.
            accepted =
                config_.spec.oracle
                    ? config_.spec.oracle(
                          request.id, k,
                          static_cast<std::uint64_t>(
                              request.specSteps))
                    : oracleAccepted(
                          config_.seed, request.id,
                          static_cast<std::uint64_t>(
                              request.specSteps),
                          k, config_.spec.acceptRate);
        }
        LIA_ASSERT(accepted >= 0 && accepted <= k,
                   "verify accepted ", accepted, " of ", k,
                   " drafts");
        plan.specAccepted.push_back(accepted);

        ++request.specSteps;
        request.specDrafted += k;
        request.specAccepted += accepted;
        ++metrics_.specSteps;
        metrics_.specDraftedTokens += k;
        metrics_.specAcceptedTokens += accepted;

        // Settle the worst-case KV reservation down to the verified
        // token count (the scheduler grew by k + 1; the step really
        // appended accepted + 1).
        if (config_.policy == SchedulerPolicy::Preemptive)
            admission_.shrink(request, k - accepted);
    }
}

void
EngineInstance::swapInArrived(std::size_t index)
{
    Request &request = requests_[index];
    LIA_ASSERT(request.state == RequestState::Swapped,
               "swap-in of a ", toString(request.state),
               " request");
    request.state = RequestState::Decoding;
    request.swapReady = false;
    active_.push_back(index);
    if (sink_)
        spanTransition(request, "decode", events_.now());
    if (!inFlight_)
        startIteration();
}

void
EngineInstance::completeIteration(const IterationPlan &plan)
{
    const double now = events_.now();
    for (std::size_t i = 0; i < plan.decode.size(); ++i) {
        Request &request = requests_[plan.decode[i]];
        // Each entry emits its accepted drafts plus the correction or
        // bonus token in one step; a plain decode (k = 0) emits one.
        for (std::int64_t t = 0; t <= plan.specAccepted[i]; ++t) {
            ++request.generated;
            tokenEmitted(request, now);
        }
        LIA_ASSERT(request.generated <= request.lOut,
                   "speculation overshot the output budget");
        if (request.done())
            finish(request, now);
    }
    for (const PrefillChunk &chunk : plan.chunks) {
        Request &request = requests_[chunk.index];
        request.prefilled += chunk.tokens;
        if (request.inPrefill())
            continue;
        if (prefixCache_) {
            // The pass the pin protected is done; the prompt's KV is
            // now materialised and can seed the tree next iteration.
            if (request.prefixNode != 0) {
                prefixCache_->unpin(request.prefixNode);
                request.prefixNode = 0;
            }
            pendingInserts_.push_back(chunk.index);
        }
        // Pass complete: the pass's final forward emits one token
        // — the first output token of a fresh prefill, or the
        // continuation token of a recompute (the rebuilt cache's
        // last position samples the token that follows the
        // already-generated stream, so the recompute iteration
        // makes the same one-token progress a decode step would).
        ++request.generated;
        if (request.firstTokenTime < 0) {
            request.firstTokenTime = now;
            metrics_.ttft.add(request.ttft());
            metrics_.ttftHist.add(request.ttft());
            metrics_.queueWait.add(request.queueWait());
            if (monitor_)
                monitor_->onTtft(now, request.ttft());
        }
        tokenEmitted(request, now);
        if (request.done()) {
            finish(request, now);
        } else {
            request.state = RequestState::Decoding;
            if (sink_)
                spanTransition(request, "decode", now);
        }
    }
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [this](std::size_t index) {
                                     return requests_[index].state ==
                                            RequestState::Finished;
                                 }),
                  active_.end());
    startIteration();
}

void
EngineInstance::finish(Request &request, double now)
{
    request.state = RequestState::Finished;
    request.finishTime = now;
    admission_.release(request);
    if (backend_)
        backend_->onFinish(request);
    if (sink_) {
        const obs::Track track = ns_.request(request.id);
        sink_->endSpan(track, now);  // close the state span
        obs::Args args{obs::arg("ttft_s", request.ttft()),
                       obs::arg("response_s", request.responseTime()),
                       obs::arg("generated", request.generated)};
        // Feature-gated context for the blame report's consumers;
        // feature-off traces keep the pre-existing schema byte for
        // byte.
        if (config_.prefix.enabled)
            args.push_back(
                obs::arg("prefix_hit_tokens", request.prefixHitTokens));
        if (config_.spec.enabled) {
            args.push_back(obs::arg("spec_steps", request.specSteps));
            args.push_back(
                obs::arg("spec_accepted", request.specAccepted));
        }
        sink_->instant(track, "finish", now, std::move(args));
    }
    ++metrics_.completed;
    metrics_.responseTime.add(request.responseTime());
    metrics_.responseHist.add(request.responseTime());
    if (monitor_)
        monitor_->onComplete(now, request.responseTime());
    if (request.lOut > 1)
        metrics_.tbt.add(request.meanTbt());
}

/**
 * Account one plan's prefix-cache activity: hit/op counters, the
 * swap-channel traffic demotions and demoted-node hits generate, and
 * the per-plan structural self-check. Runs after the pools reflect
 * the plan and before the backend mirrors it.
 */
void
EngineInstance::applyPrefixPlan(const IterationPlan &plan)
{
    const double per_token = admission_.kvBytesPerToken();
    metrics_.prefixLookups +=
        static_cast<std::size_t>(plan.prefixLookups);
    for (const PrefixHit &hit : plan.prefixHits) {
        ++metrics_.prefixHits;
        metrics_.prefixHitTokens += hit.tokens;
        if (hit.cxlBytes > 0) {
            // Reading a demoted span back occupies the DDR<->CXL
            // channel; the span itself stays parked in the pool.
            metrics_.prefixCxlReadBytes += hit.cxlBytes;
            swapChannel_.transfer(hit.cxlBytes, [](sim::Tick) {});
        }
    }
    for (const PrefixOp &op : plan.prefixOps) {
        switch (op.kind) {
          case PrefixOp::Kind::Insert:
            metrics_.prefixInsertedTokens += op.tokens;
            break;
          case PrefixOp::Kind::Evict:
          case PrefixOp::Kind::DropCxl:
            metrics_.prefixEvictedTokens += op.tokens;
            break;
          case PrefixOp::Kind::Demote:
            metrics_.prefixDemotedTokens += op.tokens;
            swapChannel_.transfer(
                static_cast<double>(op.tokens) * per_token,
                [](sim::Tick) {});
            break;
          case PrefixOp::Kind::Split:
            break;  // pure bookkeeping, no bytes move
        }
    }
    metrics_.prefixCachePeakBytes =
        std::max(metrics_.prefixCachePeakBytes,
                 admission_.cacheDdrBytes() +
                     admission_.cacheCxlBytes());
    prefixCache_->checkPlan(plan.prefixOps, plan.prefixHits);
}

Result
EngineInstance::finalize()
{
    // The per-plan checks cover what each iteration touched; one full
    // sweep at drain re-checks the whole tree.
    if (prefixCache_)
        prefixCache_->checkInvariants();
    Result result;
    result.metrics = std::move(metrics_);
    result.metrics.makespan = events_.now();
    result.metrics.swapBusyTime = swapChannel_.busyTime();
    result.requests = std::move(requests_);
    result.policy = config_.policy;
    result.paramsInCxl = admission_.paramsInCxl();
    result.kvBudgetBytes = admission_.kvBudgetBytes();
    result.plannerCap = scheduler_.plannerCap();
    result.kvReservedAtDrain =
        admission_.reservedBytes() + admission_.swappedBytes();
    result.prefixCacheBytesAtDrain =
        admission_.cacheDdrBytes() + admission_.cacheCxlBytes();
    return result;
}

} // namespace serve
} // namespace lia
