#include "support/differential.hh"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <vector>

#include "serve/runtime_backend.hh"
#include "support/serving_checks.hh"

namespace lia {
namespace test {

using model::Stage;
using serve::RequestState;
using serve::SchedulerPolicy;

const hw::SystemConfig &
tinySystem(bool cxl)
{
    static const hw::SystemConfig with = hw::withCxl(hw::sprA100());
    static const hw::SystemConfig without = hw::sprA100();
    return cxl ? with : without;
}

const model::ModelConfig &
tinyServedModel(bool int8)
{
    // d=32, 2 layers, 2 heads: one KV token is 256 bytes, a full
    // forward is microseconds — 500+ executed serving runs stay fast
    // while byte budgets in the tens of KB force real preemption.
    // Quantizing prices the weights at one byte each; the KV stays
    // BF16, so both variants have the same KV geometry.
    static const model::ModelConfig model =
        model::tinyOpt(32, 2, 2, 256, 101);
    static const model::ModelConfig int8_model =
        model::quantized(model, model::WeightPrecision::Int8);
    return int8 ? int8_model : model;
}

std::shared_ptr<const serve::IterationCostCache>
tinySharedCosts(bool cxl, bool int8)
{
    // Must mirror the pricing preset ServingEngine builds internally.
    static const auto make = [](bool has_cxl, bool int8_weights) {
        const model::ModelConfig &served = tinyServedModel(int8_weights);
        core::EngineConfig cfg;
        cfg.costOptions.executionAwareObjective = true;
        cfg.autoMemoryPolicy = has_cxl;
        cfg.specDraftModel = model::draftModelConfig(served);
        static std::vector<std::unique_ptr<core::EngineModel>> keep;
        keep.push_back(std::make_unique<core::EngineModel>(
            tinySystem(has_cxl), served, cfg));
        return std::make_shared<const serve::IterationCostCache>(
            *keep.back(), 32);
    };
    static const auto with = make(true, false);
    static const auto without = make(false, false);
    static const auto with_int8 = make(true, true);
    static const auto without_int8 = make(false, true);
    if (int8)
        return cxl ? with_int8 : without_int8;
    return cxl ? with : without;
}

std::size_t
envScenarioCount(const char *env_name, std::size_t fallback)
{
    if (const char *env = std::getenv(env_name)) {
        const long scenarios = std::atol(env);
        if (scenarios > 0)
            return static_cast<std::size_t>(scenarios);
    }
    return fallback;
}

serve::Config
randomTinyConfig(std::mt19937_64 &rng, double decodeStepSeconds)
{
    serve::Config cfg;
    cfg.requests =
        std::uniform_int_distribution<std::size_t>(4, 12)(rng);
    cfg.seed = std::uniform_int_distribution<std::uint64_t>(
        1, 1u << 30)(rng);

    // Only the code trace fits tiny contexts (conversation outputs
    // overflow a 96-token window).
    cfg.trace = trace::TraceKind::Code;
    const std::int64_t contexts[] = {96, 128, 160};
    cfg.maxContext =
        contexts[std::uniform_int_distribution<int>(0, 2)(rng)];

    const std::int64_t batches[] = {2, 3, 4, 8};
    cfg.maxBatch =
        batches[std::uniform_int_distribution<int>(0, 3)(rng)];

    const std::int64_t chunks[] = {0, 16, 48};
    cfg.prefillChunkTokens =
        chunks[std::uniform_int_distribution<int>(0, 2)(rng)];

    const double watermarks[] = {0.0, 0.1, 0.3};
    cfg.admissionWatermark =
        watermarks[std::uniform_int_distribution<int>(0, 2)(rng)];

    // One KV token is 256 bytes, a request's full horizon 10-41 KB:
    // these caps admit only a few requests (and reject the widest
    // outright), so optimistic admission genuinely overcommits and
    // decode growth forces preemption.
    const double caps[] = {12288, 16384, 24576, 32768, 49152};
    cfg.kvBudgetCapBytes =
        caps[std::uniform_int_distribution<int>(0, 4)(rng)];

    // Offered load scaled off the cost model's own decode price: mean
    // interarrival 10-60 decode steps, well under a request's ~32-step
    // service time, so queues form whatever the absolute times are.
    cfg.arrivalRatePerSecond =
        1.0 / (decodeStepSeconds *
               std::uniform_real_distribution<double>(10.0, 60.0)(rng));

    // Prefix caching on half the scenarios, with and without Zipfian
    // prompt sharing (pools make hits common; without them the
    // insert/evict machinery still runs on mostly-cold lookups).
    cfg.prefix.enabled =
        std::uniform_int_distribution<int>(0, 1)(rng) == 1;
    const std::int64_t pools[] = {0, 2, 3};
    cfg.prefix.sharingPools =
        pools[std::uniform_int_distribution<int>(0, 2)(rng)];
    const double exponents[] = {1.0, 1.5};
    cfg.prefix.sharingExponent =
        exponents[std::uniform_int_distribution<int>(0, 1)(rng)];
    cfg.prefix.sharedFraction = 0.5;
    const std::int64_t prefix_blocks[] = {8, 16};
    cfg.prefix.blockTokens =
        prefix_blocks[std::uniform_int_distribution<int>(0, 1)(rng)];

    // Speculative decoding on half the scenarios. Small k keeps verify
    // batches inside the tiny context; the acceptance rate only steers
    // the analytic fallback oracle (backed scenarios replay the real
    // verify outcomes instead — see runDifferentialScenario).
    cfg.spec.enabled =
        std::uniform_int_distribution<int>(0, 1)(rng) == 1;
    const std::int64_t spec_ks[] = {1, 2, 4};
    cfg.spec.draftTokens =
        spec_ks[std::uniform_int_distribution<int>(0, 2)(rng)];
    const double accept_rates[] = {0.5, 0.8, 1.0};
    cfg.spec.acceptRate =
        accept_rates[std::uniform_int_distribution<int>(0, 2)(rng)];
    return cfg;
}

namespace {

/**
 * RuntimeBackend that records the verified accept count of every
 * speculation step, keyed by (request id, per-request step index),
 * through the same acceptedDrafts() query the engine resolves with.
 * The analytic leg of a spec-enabled scenario replays these through
 * Config::spec.oracle so both paths take bit-identical
 * variable-token decode steps.
 */
class RecordingBackend : public serve::RuntimeBackend
{
  public:
    RecordingBackend(
        const hw::SystemConfig &system,
        const model::ModelConfig &model, const serve::Config &config,
        std::map<std::uint64_t, std::vector<std::int64_t>> &accepts)
        : RuntimeBackend(system, model, config), accepts_(accepts)
    {
    }

    void onPlan(const serve::IterationPlan &plan,
                const std::vector<serve::Request> &requests,
                const serve::AdmissionController &admission) override
    {
        RuntimeBackend::onPlan(plan, requests, admission);
        for (std::size_t i = 0; i < plan.specDrafts.size(); ++i) {
            if (plan.specDrafts[i] == 0)
                continue;
            const serve::Request &request = requests[plan.decode[i]];
            accepts_[request.id].push_back(acceptedDrafts(request));
        }
    }

  private:
    std::map<std::uint64_t, std::vector<std::int64_t>> &accepts_;
};

/** Compare one request's served outputs against an uninterrupted
 *  reference generation on the same weights. */
void
checkContinuity(serve::RuntimeBackend &backend,
                const serve::Request &request,
                DifferentialOutcome &outcome)
{
    const std::vector<std::int64_t> &served =
        backend.outputs(request.id);
    const std::vector<std::int64_t> reference =
        backend.referenceOutputs(request);
    EXPECT_EQ(served, reference)
        << "request " << request.id << " (lIn " << request.lIn
        << ", lOut " << request.lOut << ", " << request.recomputes
        << " recomputes, " << request.swapOuts
        << " swap-outs) diverged from its uninterrupted generation";
    ++outcome.continuityChecked;
    if (request.preemptions > 0)
        ++outcome.preemptedContinuityChecked;
}

} // namespace

void
runDifferentialScenario(const serve::Config &config, bool cxl,
                        DifferentialOutcome &outcome, bool int8)
{
    const model::ModelConfig &served = tinyServedModel(int8);
    // The backed leg runs first: when speculation is on, the runtime's
    // verify pass decides the real accept counts, the recording
    // backend captures them, and the analytic leg replays them through
    // the acceptance oracle — the backend stays passive (it never
    // *changes* a decision, the oracle merely reproduces the counts
    // the engine already committed to).
    std::map<std::uint64_t, std::vector<std::int64_t>> recorded;
    serve::Config cfg = config;
    if (cfg.spec.enabled)
        cfg.spec.oracle = [&recorded](std::uint64_t id, std::int64_t k,
                                      std::uint64_t step) {
            (void)k;
            return recorded.at(id).at(step);
        };

    serve::ServingEngine engine(tinySystem(cxl), served, cfg,
                                tinySharedCosts(cxl, int8));
    RecordingBackend backend(tinySystem(cxl), served, cfg, recorded);
    const serve::Result backed = engine.run(&backend);
    const serve::Result analytic = engine.run();

    // The backend must be passive: both paths took bit-identical
    // scheduling decisions, and both satisfy the serving invariants.
    expectIdenticalRuns(analytic, backed);
    checkServingInvariants(backed, config);

    // Executed work matches the engine's accounting item for item,
    // and the runtime holds no KV after the drain.
    const auto &counters = backend.counters();
    const auto &mx = backed.metrics;
    EXPECT_EQ(counters.prefillChunks, mx.prefillChunks);
    EXPECT_EQ(counters.evictions, mx.recomputes);
    EXPECT_EQ(counters.recomputesVerified, mx.recomputes);
    EXPECT_EQ(counters.swapOuts, mx.swapOuts);
    EXPECT_EQ(counters.swapIns, mx.swapIns);
    EXPECT_DOUBLE_EQ(counters.swapOutBytes, mx.swapOutBytes);
    EXPECT_DOUBLE_EQ(counters.swapInBytes, mx.swapInBytes);
    EXPECT_EQ(static_cast<std::int64_t>(counters.tokensProduced()),
              mx.tokensGenerated);
    EXPECT_DOUBLE_EQ(backend.liveKvBytes(), 0.0);
    EXPECT_DOUBLE_EQ(backend.swappedKvBytes(), 0.0);

    // Speculation lockstep: every draft+verify round the runtime ran
    // is one the engine accounted, token for token.
    EXPECT_EQ(counters.specSteps, mx.specSteps);
    EXPECT_EQ(static_cast<std::int64_t>(counters.specDrafted),
              mx.specDraftedTokens);
    EXPECT_EQ(static_cast<std::int64_t>(counters.specAccepted),
              mx.specAcceptedTokens);
    if (!config.spec.enabled) {
        EXPECT_EQ(mx.specSteps, 0u);
        EXPECT_EQ(counters.specSteps, 0u);
    }

    // Prefix-cache lockstep: every engine-side hit was attached and
    // digest-verified by the runtime, and the mirrored node bytes at
    // drain equal the engine's retained cache account.
    EXPECT_EQ(counters.prefixAttaches, mx.prefixHits);
    EXPECT_EQ(counters.prefixHitsVerified, mx.prefixHits);
    EXPECT_EQ(static_cast<std::int64_t>(counters.prefixAttachTokens),
              mx.prefixHitTokens);
    EXPECT_DOUBLE_EQ(backend.cacheDdrBytes() + backend.cacheCxlBytes(),
                     backed.prefixCacheBytesAtDrain);
    if (!config.prefix.enabled) {
        EXPECT_EQ(mx.prefixLookups, 0u);
        EXPECT_DOUBLE_EQ(backed.prefixCacheBytesAtDrain, 0.0);
    }

    // Token continuity: every preempted completion must match its
    // uninterrupted reference bit for bit; one never-preempted
    // completion per scenario cross-checks the plain path too.
    const std::size_t preemptedChecked =
        outcome.preemptedContinuityChecked;
    bool plainChecked = false;
    for (const auto &request : backed.requests) {
        if (request.state != RequestState::Finished)
            continue;
        // Speculated completions always check: their reference is the
        // plain (non-speculative) greedy generation, so this is the
        // spec-on == spec-off bit-identity property, end to end —
        // including requests preempted or swapped mid-speculation.
        if (request.preemptions > 0 || request.specSteps > 0) {
            checkContinuity(backend, request, outcome);
        } else if (!plainChecked) {
            checkContinuity(backend, request, outcome);
            plainChecked = true;
        }
        if (request.specSteps > 0 && request.preemptions > 0)
            ++outcome.specPreemptedRequests;
    }

    if (int8) {
        ++outcome.int8Scenarios;
        outcome.int8Preemptions += mx.preemptions;
        outcome.int8PreemptedContinuityChecked +=
            outcome.preemptedContinuityChecked - preemptedChecked;
    }
    ++outcome.scenarios;
    outcome.preemptions += mx.preemptions;
    outcome.recomputes += mx.recomputes;
    outcome.swapOuts += mx.swapOuts;
    outcome.swapIns += mx.swapIns;
    outcome.prefillChunks += mx.prefillChunks;
    outcome.rejectedCapacity += mx.rejectedCapacity;
    outcome.prefixHits += mx.prefixHits;
    outcome.prefixInserts += counters.prefixInserts;
    outcome.prefixReclaims +=
        counters.prefixEvictions + counters.prefixDemotions;
    outcome.specSteps += counters.specSteps;
    outcome.specDrafted += counters.specDrafted;
    outcome.specAccepted += counters.specAccepted;
}

} // namespace test
} // namespace lia
