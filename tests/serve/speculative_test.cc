/**
 * @file
 * Speculative decoding test battery (DESIGN.md §11).
 *
 * Locks down the one property speculation must never break: spec-on
 * greedy decode is bit-identical to spec-off greedy decode, at every
 * draft length k and every kernel-pool width (the threads4 re-run in
 * CMake drives the same binary at LIA_THREADS=4).
 *
 *  - Runtime level: randomized prompts through the raw propose /
 *    sampleEvery forward / greedyAccepted / truncate loop vs one-token
 *    decode passes, k in {1, 2, 4, 8}, memcmp on the emitted streams;
 *    mid-stream draft cache discards exercise the rebuild path.
 *  - Serving level: full runtime-backed runs with speculation on
 *    decode the same tokens as the spec-off golden run, per request.
 *  - Accounting: the engine's acceptance counters match a scalar
 *    reference simulation driven by the same injected oracle, and the
 *    analytical pricing helper expectedSpeculativeTokens() matches
 *    its closed form.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/engine.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "runtime/draft.hh"
#include "runtime/executor.hh"
#include "runtime/kv_cache.hh"
#include "serve/engine.hh"
#include "serve/runtime_backend.hh"
#include "support/differential.hh"
#include "support/serving_checks.hh"

namespace {

using namespace lia;
using runtime::CooperativeExecutor;
using runtime::DraftModel;
using runtime::KvCache;
using runtime::TransformerWeights;
using serve::RequestState;
using serve::SchedulerPolicy;

constexpr std::int64_t kDraftLengths[] = {1, 2, 4, 8};

/** One single-feed forward pass of one sequence. */
std::int64_t
step(CooperativeExecutor &exec, KvCache &cache,
     std::vector<std::int64_t> tokens,
     model::Stage stage = model::Stage::Decode)
{
    const runtime::ForwardFeed feed{&cache, std::move(tokens), stage};
    return exec.forward({&feed, 1}).front();
}

TEST(SpeculativeTest, SpecOnGreedyIsBitIdenticalToSpecOffAcrossK)
{
    const model::ModelConfig target_cfg = model::tinyOpt();
    const model::ModelConfig draft_cfg =
        model::draftModelConfig(target_cfg);
    Rng target_rng(1234);
    CooperativeExecutor target(
        hw::sprA100(),
        TransformerWeights::random(target_cfg, target_rng), {});
    Rng draft_rng(99);
    DraftModel draft(hw::sprA100(),
                     TransformerWeights::random(draft_cfg, draft_rng),
                     {});

    std::mt19937_64 rng(0x5BEC);
    for (const std::int64_t k : kDraftLengths) {
        for (int trial = 0; trial < 6; ++trial) {
            const std::int64_t l_in =
                std::uniform_int_distribution<std::int64_t>(4,
                                                            20)(rng);
            const std::int64_t l_out =
                std::uniform_int_distribution<std::int64_t>(4,
                                                            16)(rng);
            std::vector<std::int64_t> prompt(
                static_cast<std::size_t>(l_in));
            for (auto &token : prompt)
                token = std::uniform_int_distribution<std::int64_t>(
                    0, target_cfg.vocabSize - 1)(rng);
            SCOPED_TRACE(testing::Message()
                         << "k " << k << " trial " << trial << " lIn "
                         << l_in << " lOut " << l_out);

            // Spec-off reference: plain greedy decode.
            KvCache ref_cache(target_cfg, 1, 64);
            std::vector<std::int64_t> want;
            want.push_back(
                step(target, ref_cache, prompt, model::Stage::Prefill));
            while (static_cast<std::int64_t>(want.size()) < l_out)
                want.push_back(step(target, ref_cache, {want.back()}));

            // Spec-on: draft k, verify as one sampleEvery feed, roll
            // back rejected KV, repeat — with the engine's
            // end-of-stream clamp so the emitted count never
            // overshoots lOut.
            KvCache cache(target_cfg, 1, 64);
            auto draft_cache = draft.makeCache(64);
            std::vector<std::int64_t> got;
            got.push_back(
                step(target, cache, prompt, model::Stage::Prefill));
            while (static_cast<std::int64_t>(got.size()) < l_out) {
                // Odd trials discard the draft cache mid-stream (the
                // post-preemption state): propose() must rebuild it
                // from the full stream without changing a token.
                if (trial % 2 == 1 &&
                    static_cast<std::int64_t>(got.size()) ==
                        l_out / 2)
                    draft_cache = draft.makeCache(64);
                const std::int64_t generated =
                    static_cast<std::int64_t>(got.size());
                const std::int64_t k_eff =
                    std::min(k, l_out - generated - 1);
                if (k_eff < 1) {
                    got.push_back(step(target, cache, {got.back()}));
                    continue;
                }
                std::vector<std::int64_t> stream = prompt;
                stream.insert(stream.end(), got.begin(), got.end());
                const std::vector<std::int64_t> drafts = draft.propose(
                    *draft_cache,
                    {stream.begin() + draft_cache->length(),
                     stream.end()},
                    k_eff);
                runtime::ForwardFeed verify{&cache, {got.back()},
                                            model::Stage::Decode, true};
                verify.tokens.insert(verify.tokens.end(), drafts.begin(),
                                     drafts.end());
                const std::vector<std::int64_t> samples =
                    target.forward({&verify, 1});
                const std::int64_t accepted =
                    runtime::greedyAccepted(samples, drafts);
                cache.truncate(cache.length() - (k_eff - accepted));
                DraftModel::truncateAfterVerify(
                    *draft_cache,
                    static_cast<std::int64_t>(stream.size()), accepted,
                    k_eff);
                got.insert(got.end(), samples.begin(),
                           samples.begin() + accepted + 1);
                EXPECT_EQ(cache.length(),
                          l_in +
                              static_cast<std::int64_t>(got.size()) -
                              1);
            }

            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(got, want);
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(got[0])),
                      0)
                << "spec-on stream is not memcmp-identical to "
                   "spec-off";
        }
    }
}

TEST(SpeculativeTest, ServedSpecOnOutputsMatchTheSpecOffGolden)
{
    const bool cxl = true;
    const double step = test::tinySharedCosts(cxl)->time(
        model::Stage::Decode, 4, 64);

    serve::Config base;
    base.requests = 8;
    base.seed = 4242;
    base.trace = trace::TraceKind::Code;
    base.maxContext = 128;
    base.maxBatch = 4;
    base.prefillChunkTokens = 16;
    base.kvBudgetCapBytes = 24576;
    base.arrivalRatePerSecond = 1.0 / (step * 25.0);
    base.policy = SchedulerPolicy::Preemptive;
    base.cxlSpill = cxl;

    // Spec-off golden run.
    serve::ServingEngine off_engine(test::tinySystem(cxl),
                                    test::tinyServedModel(), base,
                                    test::tinySharedCosts(cxl));
    serve::RuntimeBackend off_backend(test::tinySystem(cxl),
                                      test::tinyServedModel(), base);
    const serve::Result off = off_engine.run(&off_backend);
    EXPECT_EQ(off.metrics.specSteps, 0u);

    for (const std::int64_t k : kDraftLengths) {
        serve::Config cfg = base;
        cfg.spec.enabled = true;
        cfg.spec.draftTokens = k;
        SCOPED_TRACE(testing::Message() << "draftTokens " << k);

        serve::ServingEngine engine(test::tinySystem(cxl),
                                    test::tinyServedModel(), cfg,
                                    test::tinySharedCosts(cxl));
        serve::RuntimeBackend backend(test::tinySystem(cxl),
                                      test::tinyServedModel(), cfg);
        const serve::Result on = engine.run(&backend);
        test::checkServingInvariants(on, cfg);

        // Speculation changes timing, never tokens: every finished
        // request decoded byte-identically to the spec-off run.
        test::expectIdenticalDecodes(backend, on, off_backend, off);
        EXPECT_GT(on.metrics.specSteps, 0u);
        EXPECT_EQ(on.metrics.specAcceptedTokens +
                      static_cast<std::int64_t>(on.metrics.specSteps),
                  static_cast<std::int64_t>(
                      backend.counters().specTokens));
    }
}

TEST(SpeculativeTest, AcceptanceCountersMatchAScalarReference)
{
    const bool cxl = true;
    const double step = test::tinySharedCosts(cxl)->time(
        model::Stage::Decode, 4, 64);

    for (const SchedulerPolicy policy :
         {SchedulerPolicy::Continuous, SchedulerPolicy::Preemptive}) {
        serve::Config cfg;
        cfg.requests = 16;
        cfg.seed = 77;
        cfg.trace = trace::TraceKind::Code;
        cfg.maxContext = 128;
        cfg.maxBatch = 4;
        cfg.prefillChunkTokens = 16;
        cfg.kvBudgetCapBytes = 32768;
        cfg.arrivalRatePerSecond = 1.0 / (step * 20.0);
        cfg.policy = policy;
        cfg.cxlSpill = cxl;
        cfg.spec.enabled = true;
        cfg.spec.draftTokens = 4;
        // Injected acceptance oracle: a fixed function of the request
        // id and the per-request step index, so a scalar simulation
        // can replay it exactly.
        cfg.spec.oracle = [](std::uint64_t id, std::int64_t k,
                             std::uint64_t spec_step) {
            return static_cast<std::int64_t>(
                (id * 7 + spec_step * 3) %
                static_cast<std::uint64_t>(k + 1));
        };
        SCOPED_TRACE(testing::Message()
                     << "policy " << serve::toString(policy));

        serve::ServingEngine engine(test::tinySystem(cxl),
                                    test::tinyServedModel(), cfg,
                                    test::tinySharedCosts(cxl));
        const serve::Result result = engine.run();
        test::checkServingInvariants(result, cfg);

        // Scalar reference: replay each finished request's lifetime —
        // the prefill pass emits one token, then every decode step
        // drafts k_eff = min(k, lOut - generated - 1) (zero near the
        // output budget) and emits accepted + 1 tokens.
        std::size_t want_steps = 0;
        std::int64_t want_drafted = 0, want_accepted = 0;
        for (const serve::Request &request : result.requests) {
            if (request.state != RequestState::Finished)
                continue;
            std::int64_t generated = 1, steps = 0;
            std::int64_t drafted = 0, accepted = 0;
            while (generated < request.lOut) {
                const std::int64_t k_eff =
                    std::min(cfg.spec.draftTokens,
                             request.lOut - generated - 1);
                if (k_eff < 1) {
                    ++generated;
                    continue;
                }
                const std::int64_t a = cfg.spec.oracle(
                    request.id, k_eff,
                    static_cast<std::uint64_t>(steps));
                ++steps;
                drafted += k_eff;
                accepted += a;
                generated += a + 1;
            }
            EXPECT_EQ(request.specSteps, steps)
                << "request " << request.id;
            EXPECT_EQ(request.specDrafted, drafted)
                << "request " << request.id;
            EXPECT_EQ(request.specAccepted, accepted)
                << "request " << request.id;
            want_steps += static_cast<std::size_t>(steps);
            want_drafted += drafted;
            want_accepted += accepted;
        }
        EXPECT_GT(want_steps, 0u);
        EXPECT_EQ(result.metrics.specSteps, want_steps);
        EXPECT_EQ(result.metrics.specDraftedTokens, want_drafted);
        EXPECT_EQ(result.metrics.specAcceptedTokens, want_accepted);

        // Determinism: the oracle-driven run replays bit-identically.
        serve::ServingEngine again(test::tinySystem(cxl),
                                   test::tinyServedModel(), cfg,
                                   test::tinySharedCosts(cxl));
        test::expectIdenticalRuns(result, again.run());
    }
}

TEST(SpeculativeTest, ExpectedSpeculativeTokensMatchesTheClosedForm)
{
    // E(alpha, k) = sum_{i=0..k} alpha^i.
    EXPECT_DOUBLE_EQ(core::expectedSpeculativeTokens(0.0, 4), 1.0);
    EXPECT_DOUBLE_EQ(core::expectedSpeculativeTokens(1.0, 4), 5.0);
    EXPECT_DOUBLE_EQ(core::expectedSpeculativeTokens(0.5, 1), 1.5);
    EXPECT_DOUBLE_EQ(core::expectedSpeculativeTokens(0.5, 2), 1.75);
    // Monotone in both arguments.
    double prev = 0.0;
    for (const std::int64_t k : kDraftLengths) {
        const double expected =
            core::expectedSpeculativeTokens(0.8, k);
        EXPECT_GT(expected, prev);
        prev = expected;
    }
    EXPECT_LT(core::expectedSpeculativeTokens(0.3, 4),
              core::expectedSpeculativeTokens(0.9, 4));
}

} // namespace
