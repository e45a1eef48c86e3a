#include "serve/runtime_backend.hh"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>
#include <utility>

#include "base/logging.hh"
#include "base/rng.hh"
#include "obs/sink.hh"
#include "runtime/weights.hh"
#include "serve/prefix_cache.hh"

namespace lia {
namespace serve {

namespace {

/** Exact-in-double byte counts still deserve a rounding guard. */
bool
sameBytes(double a, double b)
{
    return std::abs(a - b) < 0.5;
}

runtime::TransformerWeights
synthWeights(const model::ModelConfig &model, std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
    return runtime::TransformerWeights::random(model, rng);
}

/**
 * Every backend shares the process-wide kernel pool: a run issues one
 * forward pass per iteration, thousands of them, and reusing one set
 * of persistent workers (instead of any per-call spawning) keeps that
 * stream cheap. Non-owning — the shared pool outlives every executor.
 */
std::shared_ptr<base::ThreadPool>
sharedKernelPool()
{
    return {&base::ThreadPool::shared(), [](base::ThreadPool *) {}};
}

runtime::ExecutorConfig
backendExecutorConfig(std::shared_ptr<base::ThreadPool> pool,
                      bool profile_kernels,
                      const model::ModelConfig &model)
{
    runtime::ExecutorConfig cfg;
    cfg.pool = std::move(pool);
    cfg.profileKernels = profile_kernels;
    // Quantized serving executes quantized: an int8-priced model
    // (weightBytesPerElement 1.0, e.g. "OPT-30B-int8") runs the int8
    // tile kernels, so the bytes the runtime actually moves match the
    // bytes IterationCostCache/estimateIteration charge. Int4 has no
    // integer kernel, so the RuntimeBackend constructor rejects it.
    if (model.weightBytesPerElement == 1.0)
        cfg.weightPrecision = model::WeightPrecision::Int8;
    return cfg;
}

/**
 * Tokens [@p from, @p to) of the stream @p prompt + @p outputs, read
 * straight from the two halves without building the whole stream.
 */
std::vector<std::int64_t>
streamSlice(const std::vector<std::int64_t> &prompt,
            const std::vector<std::int64_t> &outputs, std::int64_t from,
            std::int64_t to)
{
    const auto split = static_cast<std::int64_t>(prompt.size());
    std::vector<std::int64_t> slice;
    slice.reserve(static_cast<std::size_t>(to - from));
    for (std::int64_t t = from; t < to; ++t)
        slice.push_back(t < split ? prompt.at(t)
                                  : outputs.at(t - split));
    return slice;
}

} // namespace

std::string
RuntimeBackend::Counters::toJson() const
{
    using obs::jsonNumber;
    std::ostringstream os;
    os << "{\"prefill_chunks\":" << prefillChunks
       << ",\"pass_completions\":" << passCompletions
       << ",\"decode_steps\":" << decodeSteps
       << ",\"evictions\":" << evictions
       << ",\"swap_outs\":" << swapOuts
       << ",\"swap_ins\":" << swapIns
       << ",\"recomputes_verified\":" << recomputesVerified
       << ",\"swap_out_bytes\":" << jsonNumber(swapOutBytes)
       << ",\"swap_in_bytes\":" << jsonNumber(swapInBytes)
       << ",\"prefix_attaches\":" << prefixAttaches
       << ",\"prefix_hits_verified\":" << prefixHitsVerified
       << ",\"prefix_attach_tokens\":" << prefixAttachTokens
       << ",\"prefix_inserts\":" << prefixInserts
       << ",\"prefix_splits\":" << prefixSplits
       << ",\"prefix_evictions\":" << prefixEvictions
       << ",\"prefix_demotions\":" << prefixDemotions
       << ",\"spec_steps\":" << specSteps
       << ",\"spec_drafted\":" << specDrafted
       << ",\"spec_accepted\":" << specAccepted
       << ",\"spec_tokens\":" << specTokens
       << ",\"tokens_produced\":" << tokensProduced() << "}";
    return os.str();
}

RuntimeBackend::RuntimeBackend(const hw::SystemConfig &system,
                               const model::ModelConfig &model,
                               const Config &config,
                               bool profile_kernels)
    : model_(model), config_(config), kernelPool_(sharedKernelPool()),
      executor_(system, synthWeights(model, config.seed),
                backendExecutorConfig(kernelPool_, profile_kernels,
                                      model))
{
    model_.validate();
    config_.validate();
    if (model_.weightBytesPerElement < 1.0)
        LIA_FATAL("runtime-backed serving has no int4 kernel: model ",
                  model_.name, " is priced at ",
                  model_.weightBytesPerElement,
                  " B/element but would execute fp32; serve it "
                  "analytically (no backend) or quantize to int8");
    // The draft proposer shares the kernel pool with the target
    // executor; its weights are an independent random draw (the draft
    // is a different model, not a slice of the target). It never
    // profiles: a profiling executor installs itself as the pool's
    // one observer, which would take the slot from the target's
    // profiler, and nothing reads the draft's.
    if (config_.spec.enabled)
        draft_ = std::make_unique<runtime::DraftModel>(
            system,
            synthWeights(model::draftModelConfig(model_),
                         config.seed + 0xd2afULL),
            backendExecutorConfig(kernelPool_, false,
                                  model::draftModelConfig(model_)));
}

RuntimeBackend::Sequence &
RuntimeBackend::sequence(std::uint64_t id)
{
    auto it = live_.find(id);
    LIA_ASSERT(it != live_.end(), "plan names request ", id,
               " but the backend holds no sequence for it");
    return it->second;
}

std::vector<std::int64_t>
RuntimeBackend::prompt(const Request &request) const
{
    // Shared with the engine-side PrefixCache: both ends must agree
    // token for token or the radix tree would index KV the runtime
    // never computed.
    return synthesizePrompt(config_.seed, request, model_.vocabSize);
}

void
RuntimeBackend::applyPrefixOps(const IterationPlan &plan)
{
    const std::int64_t block = config_.prefix.blockTokens;
    for (const PrefixOp &op : plan.prefixOps) {
        switch (op.kind) {
          case PrefixOp::Kind::Insert: {
            auto staged = passes_.find(op.source);
            LIA_ASSERT(staged != passes_.end(),
                       "prefix insert sources request ", op.source,
                       " but no pass KV is staged for it");
            const runtime::KvCache &pass = *staged->second;
            LIA_ASSERT(op.startToken + op.tokens <= pass.length(),
                       "prefix insert overruns the staged pass");
            NodePayload payload;
            payload.tokens = op.tokens;
            payload.span = pass.snapshotRange(
                op.startToken, op.startToken + op.tokens);
            std::vector<std::int64_t> boundaries;
            for (std::int64_t k = 1; k <= op.tokens / block; ++k)
                boundaries.push_back(op.startToken + k * block);
            payload.blockDigests =
                pass.fingerprints(boundaries, kernelPool_.get());
            cacheDdrBytes_ += payload.span.bytes;
            nodes_.emplace(op.node, std::move(payload));
            ++counters_.prefixInserts;
            break;
          }
          case PrefixOp::Kind::Split: {
            NodePayload &tail = nodes_.at(op.tail);
            LIA_ASSERT(op.tokens > 0 && op.tokens < tail.tokens,
                       "prefix split at ", op.tokens, " of ",
                       tail.tokens, " tokens");
            NodePayload head;
            head.tokens = op.tokens;
            head.span = tail.span.splitHead(op.tokens);
            head.demoted = tail.demoted;
            const auto cut = tail.blockDigests.begin() +
                             static_cast<std::ptrdiff_t>(op.tokens /
                                                         block);
            head.blockDigests.assign(tail.blockDigests.begin(), cut);
            tail.blockDigests.erase(tail.blockDigests.begin(), cut);
            tail.tokens -= op.tokens;
            nodes_.emplace(op.node, std::move(head));
            ++counters_.prefixSplits;
            break;
          }
          case PrefixOp::Kind::Evict:
          case PrefixOp::Kind::DropCxl: {
            // Evict drops a DDR-resident span, DropCxl a demoted one.
            const bool cxl = op.kind == PrefixOp::Kind::DropCxl;
            auto it = nodes_.find(op.node);
            LIA_ASSERT(it != nodes_.end() && it->second.demoted == cxl,
                       cxl ? "DropCxl" : "Evict", " of node ", op.node,
                       ", which is unknown or ",
                       cxl ? "not demoted" : "demoted");
            (cxl ? cacheCxlBytes_ : cacheDdrBytes_) -=
                it->second.span.bytes;
            nodes_.erase(it);
            ++counters_.prefixEvictions;
            break;
          }
          case PrefixOp::Kind::Demote: {
            NodePayload &payload = nodes_.at(op.node);
            LIA_ASSERT(!payload.demoted, "double demotion");
            payload.demoted = true;
            cacheDdrBytes_ -= payload.span.bytes;
            cacheCxlBytes_ += payload.span.bytes;
            ++counters_.prefixDemotions;
            break;
          }
        }
    }
}

void
RuntimeBackend::attachHit(const PrefixHit &hit, const Request &request,
                          Sequence &seq)
{
    LIA_ASSERT(hit.tokens == request.prefixHitTokens,
               "plan hit carries ", hit.tokens,
               " tokens but the request records ",
               request.prefixHitTokens);
    for (std::size_t i = 0; i < hit.path.size(); ++i) {
        const NodePayload &payload = nodes_.at(hit.path[i]);
        const bool terminal = i + 1 == hit.path.size();
        if (terminal && hit.terminalTokens < payload.tokens) {
            LIA_ASSERT(seq.cache->preload(
                           payload.span.headCopy(hit.terminalTokens)),
                       "partial terminal attach failed for request ",
                       request.id);
        } else {
            LIA_ASSERT(seq.cache->preload(payload.span),
                       "prefix span attach failed for request ",
                       request.id);
        }
    }
    LIA_ASSERT(seq.cache->length() == hit.tokens,
               "attached ", seq.cache->length(), " KV tokens for a ",
               hit.tokens, "-token hit");

    // Every hit verifies: the attached prefix must fingerprint exactly
    // as the prompt KV the sourcing pass computed from position 0.
    const NodePayload &terminal = nodes_.at(hit.node);
    const std::int64_t block = config_.prefix.blockTokens;
    const std::uint64_t want = terminal.blockDigests.at(
        static_cast<std::size_t>(hit.terminalTokens / block) - 1);
    LIA_ASSERT(seq.cache->fingerprint(-1, kernelPool_.get()) == want,
               "prefix hit for request ", request.id,
               " attached KV that does not fingerprint as the cached "
               "prompt prefix");
    seq.passDone = hit.tokens;
    ddrBytes_ += model_.kvBytesPerToken() * static_cast<double>(hit.tokens);
    ++counters_.prefixAttaches;
    ++counters_.prefixHitsVerified;
    counters_.prefixAttachTokens +=
        static_cast<std::uint64_t>(hit.tokens);
}

void
RuntimeBackend::onPlan(const IterationPlan &plan,
                       const std::vector<Request> &requests,
                       const AdmissionController &admission)
{
    // Prefix-cache mirror first: the engine flushes tree inserts at
    // the top of every iteration (sourcing passes that completed last
    // plan) and the scheduler's lookups saw the post-mutation tree,
    // so all ops apply before any hit attaches. The inserts copy what
    // they need; this plan's completions restage.
    applyPrefixOps(plan);
    passes_.clear();
    mirrorTransitions(plan, requests);

    // Every decode entry and prefill chunk of the plan runs in one
    // forward pass (DESIGN.md §6), so the iteration streams the
    // weights once.
    const std::vector<runtime::ForwardFeed> feeds =
        buildFeeds(plan, requests);
    const std::vector<std::int64_t> sampled =
        feeds.empty() ? std::vector<std::int64_t>{}
                      : executor_.forward(feeds);
    completeFeeds(plan, requests, feeds, sampled);
    checkLedgers(admission);
}

std::uint64_t
RuntimeBackend::dropCache(const Request &request, Sequence &seq)
{
    LIA_ASSERT(seq.parked.empty(), "request ", request.id,
               " preempted while already parked");
    const std::uint64_t digest =
        seq.cache->fingerprint(-1, kernelPool_.get());
    seq.draftCache.reset();
    ddrBytes_ -= seq.cache->bf16Bytes();
    seq.cache->clear();
    LIA_ASSERT(request.kvReservedBytes == 0, "preempted request ",
               request.id, " still holds a DDR reservation");
    return digest;
}

void
RuntimeBackend::mirrorTransitions(const IterationPlan &plan,
                                  const std::vector<Request> &requests)
{
    // Victims first, mirroring the scheduler: they freed their DDR
    // bytes before this plan's swap-ins, chunks and decodes grew.
    for (std::size_t index : plan.swapOut) {
        const Request &request = requests[index];
        Sequence &seq = sequence(request.id);
        runtime::KvSpan parked =
            seq.cache->snapshotRange(0, seq.cache->length());
        seq.parkedDigest = dropCache(request, seq);
        seq.parked = std::move(parked);
        swapBytes_ += seq.parked.bytes;
        LIA_ASSERT(sameBytes(seq.parked.bytes, request.kvSwappedBytes),
                   "swap-out parked ", seq.parked.bytes,
                   " bytes but the engine accounts ",
                   request.kvSwappedBytes, " for request ", request.id);
        ++counters_.swapOuts;
        counters_.swapOutBytes += seq.parked.bytes;
    }

    for (std::size_t index : plan.evict) {
        const Request &request = requests[index];
        Sequence &seq = sequence(request.id);
        // The recompute pass must rebuild exactly this cache (and then
        // one more position, which samples the continuation token).
        seq.evictedLength = seq.cache->length();
        LIA_ASSERT(seq.evictedLength == request.prefillTarget - 1,
                   "evicted cache holds ", seq.evictedLength,
                   " tokens but the recompute pass targets ",
                   request.prefillTarget);
        seq.evictedDigest = dropCache(request, seq);
        seq.recomputing = true;
        ++counters_.evictions;
    }

    for (std::size_t index : plan.swapIn) {
        const Request &request = requests[index];
        Sequence &seq = sequence(request.id);
        LIA_ASSERT(!seq.parked.empty(), "swap-in of request ",
                   request.id, " with nothing parked");
        const double bytes = seq.parked.bytes;
        LIA_ASSERT(seq.cache->length() == 0 &&
                       seq.cache->preload(seq.parked),
                   "restoring request ", request.id,
                   " into its empty cache failed");
        LIA_ASSERT(seq.cache->fingerprint(-1, kernelPool_.get()) ==
                       seq.parkedDigest,
                   "request ", request.id,
                   "'s KV changed across swap-out/swap-in");
        seq.parked = {};
        swapBytes_ -= bytes;
        ddrBytes_ += seq.cache->bf16Bytes();
        LIA_ASSERT(sameBytes(bytes, request.kvReservedBytes),
                   "swap-in restored ", bytes,
                   " bytes but the engine reserved ",
                   request.kvReservedBytes, " for request ", request.id);
        ++counters_.swapIns;
        counters_.swapInBytes += bytes;
    }

    for (std::size_t index : plan.admit) {
        const Request &request = requests[index];
        LIA_ASSERT(live_.find(request.id) == live_.end(), "request ",
                   request.id, " admitted twice");
        LIA_ASSERT(request.lIn + request.lOut <= model_.maxSeqLen,
                   "request ", request.id,
                   " exceeds the model context window");
        Sequence seq;
        seq.prompt = prompt(request);
        // A prefix hit attaches its tokens below and the pass
        // prefills only the suffix; the pass still *covers* the whole
        // prompt, so target counts both parts.
        seq.passTarget = request.prefillTarget + request.prefixHitTokens;
        // The cache peaks at lIn + lOut - 1 tokens (the last decode
        // step's KV lands before its token samples); one slot of slack
        // keeps the bound obvious.
        seq.cache = std::make_shared<runtime::KvCache>(
            model_, 1, request.lIn + request.lOut);
        const auto hit = std::find_if(
            plan.prefixHits.begin(), plan.prefixHits.end(),
            [index](const PrefixHit &h) { return h.index == index; });
        if (hit != plan.prefixHits.end())
            attachHit(*hit, request, seq);
        live_.emplace(request.id, std::move(seq));
    }

    for (std::size_t index : plan.resume) {
        const Request &request = requests[index];
        Sequence &seq = sequence(request.id);
        LIA_ASSERT(seq.recomputing, "resume of a non-evicted request");
        LIA_ASSERT(seq.cache->length() == 0, "resumed request ",
                   request.id, " still holds KV");
        seq.passTarget = request.prefillTarget;
        seq.passDone = 0;
        LIA_ASSERT(seq.passTarget ==
                       static_cast<std::int64_t>(seq.prompt.size() +
                                                 seq.outputs.size()),
                   "recompute pass target ", seq.passTarget,
                   " != replayable stream ",
                   seq.prompt.size() + seq.outputs.size());
    }
}

void
RuntimeBackend::checkDecodeKvLength(const Request &request,
                                    const Sequence &seq) const
{
    const auto outputs = static_cast<std::int64_t>(seq.outputs.size());
    LIA_ASSERT(seq.cache->length() == request.lIn + outputs - 1,
               "decode KV length diverged for request ", request.id);
}

void
RuntimeBackend::checkReservation(const Request &request,
                                 const Sequence &seq,
                                 std::int64_t pending) const
{
    const double bytes = seq.cache->bf16Bytes();
    const double reserved = request.kvReservedBytes;
    LIA_ASSERT(config_.policy == SchedulerPolicy::Preemptive
                   ? sameBytes(bytes + model_.kvBytesPerToken() *
                                           static_cast<double>(pending),
                               reserved)
                   : bytes <= reserved + 0.5,
               "request ", request.id, ": cache ", bytes, " bytes, ",
               pending, " pending tokens vs reservation ", reserved);
}

std::vector<runtime::ForwardFeed>
RuntimeBackend::buildFeeds(const IterationPlan &plan,
                           const std::vector<Request> &requests)
{
    // Decode entries first in plan order, then chunks in plan order:
    // the feed order the ledger charges in and completeFeeds() reads.
    // Each entry is checked against its sequence's state here, before
    // the pass.
    LIA_ASSERT(plan.specDrafts.size() == plan.decode.size(),
               "spec drafts out of step with the decode list");
    std::vector<runtime::ForwardFeed> feeds;
    for (std::size_t i = 0; i < plan.decode.size(); ++i) {
        const Request &request = requests[plan.decode[i]];
        Sequence &seq = sequence(request.id);
        LIA_ASSERT(request.generated ==
                       static_cast<std::int64_t>(seq.outputs.size()),
                   "engine counts ", request.generated,
                   " generated tokens for request ", request.id,
                   " but the backend holds ", seq.outputs.size());
        checkDecodeKvLength(request, seq);
        // Feed [last, d1..dk], the k drafts proposed by the CPU-side
        // draft model, sampling every position when k > 0.
        const std::int64_t k = plan.specDrafts[i];
        std::vector<std::int64_t> tokens;
        if (k > 0) {
            LIA_ASSERT(draft_ != nullptr,
                       "speculative plan on a backend built with spec "
                       "disabled");
            if (!seq.draftCache)
                seq.draftCache =
                    draft_->makeCache(request.lIn + request.lOut);
            const auto stream = static_cast<std::int64_t>(
                seq.prompt.size() + seq.outputs.size());
            tokens = draft_->propose(
                *seq.draftCache,
                streamSlice(seq.prompt, seq.outputs,
                            seq.draftCache->length(), stream),
                k);
        }
        tokens.insert(tokens.begin(), seq.outputs.back());
        feeds.push_back({seq.cache.get(), std::move(tokens),
                         model::Stage::Decode, k > 0});
    }

    for (const PrefillChunk &chunk : plan.chunks) {
        const Request &request = requests[chunk.index];
        Sequence &seq = sequence(request.id);
        LIA_ASSERT(chunk.history == seq.passDone &&
                       chunk.history == seq.cache->length(),
                   "chunk history ", chunk.history,
                   " does not continue request ", request.id,
                   "'s pass (done ", seq.passDone, ", cache ",
                   seq.cache->length(), ")");
        LIA_ASSERT(seq.passDone + chunk.tokens <= seq.passTarget,
                   "chunk overruns the prefill pass");
        feeds.push_back({seq.cache.get(),
                         streamSlice(seq.prompt, seq.outputs,
                                     chunk.history,
                                     chunk.history + chunk.tokens),
                         model::Stage::Prefill});
    }
    return feeds;
}

void
RuntimeBackend::completeFeeds(const IterationPlan &plan,
                              const std::vector<Request> &requests,
                              const std::vector<runtime::ForwardFeed> &feeds,
                              const std::vector<std::int64_t> &sampled)
{
    const double perToken = model_.kvBytesPerToken();
    auto next = sampled.begin();

    // The decode feeds lead the pass, so feeds[i] is decode[i]'s.
    for (std::size_t i = 0; i < plan.decode.size(); ++i) {
        const Request &request = requests[plan.decode[i]];
        Sequence &seq = sequence(request.id);
        const auto drafts = std::span(feeds[i].tokens).subspan(1);
        const auto k = static_cast<std::int64_t>(drafts.size());
        const std::span<const std::int64_t> samples(
            next, static_cast<std::size_t>(k + 1));
        next += k + 1;
        std::int64_t accepted = 0;
        if (k > 0) {
            accepted = runtime::greedyAccepted(samples, drafts);
            // Roll the k - accepted rejected positions out of both
            // caches: the target keeps the accepted drafts plus the
            // slot the correction or bonus token just filled.
            seq.cache->truncate(seq.cache->length() - (k - accepted));
            runtime::DraftModel::truncateAfterVerify(
                *seq.draftCache,
                static_cast<std::int64_t>(seq.prompt.size() +
                                          seq.outputs.size()),
                accepted, k);
            seq.accepted = accepted;
            ++counters_.specSteps;
            counters_.specDrafted += static_cast<std::uint64_t>(k);
            counters_.specAccepted += static_cast<std::uint64_t>(accepted);
            counters_.specTokens +=
                static_cast<std::uint64_t>(accepted + 1);
        } else {
            ++counters_.decodeSteps;
        }
        seq.outputs.insert(seq.outputs.end(), samples.begin(),
                           samples.begin() + accepted + 1);
        ddrBytes_ += perToken * static_cast<double>(accepted + 1);
        checkDecodeKvLength(request, seq);
        // The scheduler grew the reservation by the worst-case k + 1
        // tokens; the engine settles the k - accepted rejected ones
        // once onPlan returns.
        checkReservation(request, seq, k - accepted);
    }

    for (const PrefillChunk &chunk : plan.chunks) {
        const Request &request = requests[chunk.index];
        Sequence &seq = sequence(request.id);
        const std::int64_t emitted = *next++;
        seq.passDone += chunk.tokens;
        ddrBytes_ += perToken * static_cast<double>(chunk.tokens);
        ++counters_.prefillChunks;

        if (seq.passDone < seq.passTarget)
            continue;

        // Pass complete: the final position's sample is the pass's
        // emitted token — the first output token of a fresh prefill,
        // the continuation token of a recompute.
        if (seq.recomputing) {
            LIA_ASSERT(seq.cache->fingerprint(seq.evictedLength,
                                              kernelPool_.get()) ==
                           seq.evictedDigest,
                       "recompute of request ", request.id,
                       " did not rebuild the evicted KV bit-identically");
            seq.recomputing = false;
            ++counters_.recomputesVerified;
        }
        seq.outputs.push_back(emitted);
        ++counters_.passCompletions;
        if (config_.prefix.enabled) {
            // The engine flushes this pass into the radix tree next
            // iteration; stage the cache itself (see passes_).
            passes_[request.id] = seq.cache;
        }
        checkReservation(request, seq, 0);
    }

    LIA_ASSERT(next == sampled.end(), "forward sampled ", sampled.size(),
               " tokens the plan did not consume");
}

void
RuntimeBackend::checkLedgers(const AdmissionController &admission) const
{
    // Whole-account lockstep: the runtime's materialised bytes never
    // exceed the engine's reservations (in-flight pass remainders and
    // full-horizon slack are reserved but not yet materialised), and
    // the parked bytes match the CXL swap account exactly.
    double resident = 0;
    for (const auto &entry : live_)
        resident += entry.second.cache->bf16Bytes();
    LIA_ASSERT(sameBytes(resident, ddrBytes_),
               "backend byte ledger drifted from its caches");
    LIA_ASSERT(ddrBytes_ <= admission.reservedBytes() + 0.5,
               "runtime KV (", ddrBytes_,
               " bytes) exceeds engine reservations (",
               admission.reservedBytes(), ")");
    LIA_ASSERT(sameBytes(swapBytes_, admission.swappedBytes()),
               "swap pool: backend parks ", swapBytes_,
               " bytes, engine accounts ", admission.swappedBytes());

    double node_ddr = 0, node_cxl = 0;
    for (const auto &entry : nodes_)
        (entry.second.demoted ? node_cxl : node_ddr) +=
            entry.second.span.bytes;
    LIA_ASSERT(sameBytes(node_ddr, cacheDdrBytes_) &&
                   sameBytes(node_cxl, cacheCxlBytes_),
               "prefix node ledger drifted from its spans");
    LIA_ASSERT(sameBytes(cacheDdrBytes_, admission.cacheDdrBytes()) &&
                   sameBytes(cacheCxlBytes_, admission.cacheCxlBytes()),
               "prefix cache: backend mirrors ", cacheDdrBytes_, "/",
               cacheCxlBytes_, " bytes (DDR/CXL), engine accounts ",
               admission.cacheDdrBytes(), "/",
               admission.cacheCxlBytes());
}

std::int64_t
RuntimeBackend::acceptedDrafts(const Request &request) const
{
    if (draft_ == nullptr)
        return -1;
    auto it = live_.find(request.id);
    LIA_ASSERT(it != live_.end() && it->second.accepted >= 0,
               "request ", request.id, " took no verify to resolve");
    return it->second.accepted;
}

void
RuntimeBackend::onFinish(const Request &request)
{
    auto it = live_.find(request.id);
    LIA_ASSERT(it != live_.end(), "finish of an unknown request");
    Sequence &seq = it->second;
    LIA_ASSERT(request.done() &&
                   static_cast<std::int64_t>(seq.outputs.size()) ==
                       request.lOut,
               "request ", request.id, " finished with ",
               seq.outputs.size(), " of ", request.lOut, " tokens");
    LIA_ASSERT(seq.parked.empty(), "finished while swapped out");
    LIA_ASSERT(seq.cache->length() == request.lIn + request.lOut - 1,
               "finished request ", request.id, " holds ",
               seq.cache->length(), " KV tokens, expected ",
               request.lIn + request.lOut - 1);
    LIA_ASSERT(request.kvReservedBytes == 0 &&
                   request.kvSwappedBytes == 0,
               "finished request still holds reservations");
    ddrBytes_ -= seq.cache->bf16Bytes();
    finished_.emplace(request.id, std::move(seq.outputs));
    live_.erase(it);
}

void
RuntimeBackend::onDrain()
{
    LIA_ASSERT(live_.empty(), live_.size(),
               " sequences leaked at drain");
    LIA_ASSERT(sameBytes(ddrBytes_, 0) && sameBytes(swapBytes_, 0),
               "KV bytes leaked at drain: ddr ", ddrBytes_, ", swap ",
               swapBytes_);
}

const std::vector<std::int64_t> &
RuntimeBackend::outputs(std::uint64_t id) const
{
    auto it = finished_.find(id);
    LIA_ASSERT(it != finished_.end(),
               "no finished outputs for request ", id);
    return it->second;
}

std::vector<std::int64_t>
RuntimeBackend::referenceOutputs(const Request &request)
{
    runtime::KvCache cache(model_, 1, request.lIn + request.lOut);
    runtime::ForwardFeed feed{&cache, prompt(request),
                              model::Stage::Prefill};
    std::vector<std::int64_t> generated;
    for (;;) {
        generated.push_back(executor_.forward({&feed, 1}).front());
        if (static_cast<std::int64_t>(generated.size()) == request.lOut)
            return generated;
        feed.tokens = {generated.back()};
        feed.stage = model::Stage::Decode;
    }
}

} // namespace serve
} // namespace lia
