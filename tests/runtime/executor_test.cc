/**
 * @file
 * Tests for the cooperative executor: real inference on a tiny model,
 * plan-independence of results, and transfer/capacity accounting.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "base/logging.hh"
#include "hw/catalog.hh"
#include "hw/system.hh"
#include "model/sublayer.hh"
#include "runtime/executor.hh"

namespace {

using namespace lia;
using namespace lia::runtime;
using core::Policy;

class ExecutorTest : public ::testing::Test
{
  protected:
    hw::SystemConfig sys = hw::sprA100();
    model::ModelConfig m = model::tinyOpt();

    TransformerWeights
    weights(std::uint64_t seed = 42)
    {
        Rng rng(seed);
        return TransformerWeights::random(m, rng);
    }

    std::vector<std::vector<std::int64_t>>
    prompts(std::int64_t batch = 2, std::int64_t len = 8)
    {
        std::vector<std::vector<std::int64_t>> out;
        for (std::int64_t b = 0; b < batch; ++b) {
            std::vector<std::int64_t> p;
            for (std::int64_t t = 0; t < len; ++t)
                p.push_back((7 * b + 3 * t + 1) % m.vocabSize);
            out.push_back(std::move(p));
        }
        return out;
    }

    /** Prefill @p batch_prompts into a batch cache: one forward pass. */
    static std::vector<std::int64_t>
    prefill(CooperativeExecutor &exec, KvCache &cache,
            const std::vector<std::vector<std::int64_t>> &batch_prompts)
    {
        ForwardFeed feed{&cache, {}, model::Stage::Prefill};
        for (const auto &p : batch_prompts)
            feed.tokens.insert(feed.tokens.end(), p.begin(), p.end());
        return exec.forward({&feed, 1});
    }

    /** One single-feed forward pass of one sequence. */
    static std::int64_t
    step(CooperativeExecutor &exec, KvCache &cache,
         std::vector<std::int64_t> tokens,
         model::Stage stage = model::Stage::Decode)
    {
        const ForwardFeed feed{&cache, std::move(tokens), stage};
        return exec.forward({&feed, 1}).front();
    }
};

constexpr model::Stage kPrefill = model::Stage::Prefill;

TEST_F(ExecutorTest, GeneratesRequestedTokenCount)
{
    CooperativeExecutor exec(sys, weights(), {});
    const auto out = exec.generate(prompts(), 6);
    ASSERT_EQ(out.size(), 2u);
    for (const auto &seq : out) {
        EXPECT_EQ(seq.size(), 6u);
        for (auto tok : seq) {
            EXPECT_GE(tok, 0);
            EXPECT_LT(tok, m.vocabSize);
        }
    }
}

TEST_F(ExecutorTest, GenerationIsDeterministic)
{
    CooperativeExecutor a(sys, weights(), {});
    CooperativeExecutor b(sys, weights(), {});
    EXPECT_EQ(a.generate(prompts(), 5), b.generate(prompts(), 5));
}

TEST_F(ExecutorTest, ResultsIndependentOfPolicy)
{
    // The execution plan moves work between devices; the numerics
    // must not change (the paper's back-end preserves the model).
    ExecutorConfig cpu_plan;  // default full CPU
    ExecutorConfig gpu_plan;
    gpu_plan.prefillPolicy = Policy::fullGpu();
    gpu_plan.decodePolicy = Policy::fullGpu();
    gpu_plan.residentLayers = 2;
    ExecutorConfig mixed_plan;
    mixed_plan.prefillPolicy = Policy::fullGpu();
    mixed_plan.decodePolicy = Policy::attentionOnCpu();

    CooperativeExecutor cpu_exec(sys, weights(), cpu_plan);
    CooperativeExecutor gpu_exec(sys, weights(), gpu_plan);
    CooperativeExecutor mixed_exec(sys, weights(), mixed_plan);
    const auto expected = cpu_exec.generate(prompts(), 8);
    EXPECT_EQ(gpu_exec.generate(prompts(), 8), expected);
    EXPECT_EQ(mixed_exec.generate(prompts(), 8), expected);
}

TEST_F(ExecutorTest, DifferentSeedsChangeOutputs)
{
    CooperativeExecutor a(sys, weights(1), {});
    CooperativeExecutor b(sys, weights(2), {});
    EXPECT_NE(a.generate(prompts(), 8), b.generate(prompts(), 8));
}

// --- Forward passes over caller-owned caches ------------------------

TEST_F(ExecutorTest, ChunkedPrefillIsBitIdenticalToMonolithic)
{
    CooperativeExecutor exec(sys, weights(), {});
    const auto prompt = prompts(1, 12)[0];

    KvCache whole(m, 1, 32);
    const auto monolithic = step(exec, whole, prompt, kPrefill);

    // Uneven chunk boundaries; only the final chunk's sample counts.
    KvCache pieces(m, 1, 32);
    using Vec = std::vector<std::int64_t>;
    step(exec, pieces, Vec(prompt.begin(), prompt.begin() + 5), kPrefill);
    step(exec, pieces, Vec(prompt.begin() + 5, prompt.begin() + 6),
         kPrefill);
    const auto chunked =
        step(exec, pieces, Vec(prompt.begin() + 6, prompt.end()), kPrefill);

    EXPECT_EQ(chunked, monolithic);
    EXPECT_EQ(pieces.length(), whole.length());
    EXPECT_EQ(pieces.fingerprint(), whole.fingerprint());

    // The continuations stay identical too.
    auto a = monolithic, b = chunked;
    for (int i = 0; i < 6; ++i) {
        a = step(exec, whole, {a});
        b = step(exec, pieces, {b});
        EXPECT_EQ(b, a) << "diverged at continuation step " << i;
    }
}

TEST_F(ExecutorTest, PerSequencePathMatchesTheBatchApi)
{
    CooperativeExecutor batch_exec(sys, weights(), {});
    CooperativeExecutor seq_exec(sys, weights(), {});
    const auto prompt = prompts(1, 8)[0];
    const auto expected = batch_exec.generate({prompt}, 6)[0];

    KvCache cache(m, 1, 32);
    std::vector<std::int64_t> got;
    got.push_back(step(seq_exec, cache, prompt, kPrefill));
    while (got.size() < expected.size())
        got.push_back(step(seq_exec, cache, {got.back()}));
    EXPECT_EQ(got, expected);
}

TEST_F(ExecutorTest, EvictAndRecomputeReproducesTheGeneration)
{
    CooperativeExecutor exec(sys, weights(), {});
    const auto prompt = prompts(1, 8)[0];

    // Uninterrupted reference generation.
    KvCache straight(m, 1, 32);
    std::vector<std::int64_t> reference;
    reference.push_back(step(exec, straight, prompt, kPrefill));
    for (int i = 0; i < 5; ++i)
        reference.push_back(step(exec, straight, {reference.back()}));

    // Same sequence, evicted after three tokens: replaying prompt +
    // generated tokens rebuilds the KV bit-identically, the recompute
    // pass's final sample is the continuation token, and decode then
    // proceeds as if nothing happened.
    KvCache cache(m, 1, 32);
    std::vector<std::int64_t> out;
    out.push_back(step(exec, cache, prompt, kPrefill));
    out.push_back(step(exec, cache, {out.back()}));
    out.push_back(step(exec, cache, {out.back()}));

    const auto parkedDigest = cache.fingerprint();
    const auto parkedLength = cache.length();
    cache.clear();  // discard, as evict-and-recompute does

    std::vector<std::int64_t> replay = prompt;
    replay.insert(replay.end(), out.begin(), out.end());
    out.push_back(step(exec, cache, replay, kPrefill));
    EXPECT_EQ(cache.fingerprint(parkedLength), parkedDigest);

    while (out.size() < reference.size())
        out.push_back(step(exec, cache, {out.back()}));
    EXPECT_EQ(out, reference);
}

TEST_F(ExecutorTest, FullCpuPlanHasZeroTraffic)
{
    CooperativeExecutor exec(sys, weights(), {});
    exec.generate(prompts(), 4);
    EXPECT_DOUBLE_EQ(exec.ledger().totalBytes(), 0.0);
    EXPECT_GT(exec.cpuDevice().busyTime(), 0.0);
    EXPECT_DOUBLE_EQ(exec.gpuDevice().busyTime(), 0.0);
}

TEST_F(ExecutorTest, GpuPlanTrafficMatchesAnalyticalModel)
{
    ExecutorConfig plan;
    plan.prefillPolicy = Policy::fullGpu();
    plan.decodePolicy = Policy::fullGpu();
    CooperativeExecutor exec(sys, weights(), plan);

    const std::int64_t b = 2, l_in = 8;
    exec.generate(prompts(b, l_in), 1);

    // Expected: per layer, all four parameter operands stream (Eq. 5)
    // plus the Eq. 9 KV store-back; activations never hop.
    model::Workload w{model::Stage::Prefill, b, l_in};
    double params = 0, kv = 0;
    for (auto sub : model::allSublayers()) {
        const auto c = model::sublayerCosts(m, w, sub);
        if (model::isParamSublayer(sub))
            params += c.dY;
        if (sub == model::Sublayer::QkvMapping)
            kv += c.dKv;
    }
    const double layers = static_cast<double>(m.numLayers);
    EXPECT_DOUBLE_EQ(exec.ledger().bytes(Traffic::Param),
                     layers * params);
    EXPECT_DOUBLE_EQ(exec.ledger().bytes(Traffic::Kv), layers * kv);
    EXPECT_DOUBLE_EQ(exec.ledger().bytes(Traffic::Activation), 0.0);
}

TEST_F(ExecutorTest, DecodeStepStreamsKvCache)
{
    ExecutorConfig plan;
    plan.prefillPolicy = Policy::fullGpu();
    plan.decodePolicy = Policy::fullGpu();
    CooperativeExecutor exec(sys, weights(), plan);
    KvCache cache(m, 2, 32);
    const ForwardFeed feed{&cache, prefill(exec, cache, prompts(2, 8))};
    exec.resetStats();
    exec.forward({&feed, 1});

    // Context after the decode append is 9 tokens.
    model::Workload w{model::Stage::Decode, 2, 9};
    const auto qk = model::sublayerCosts(m, w,
                                         model::Sublayer::AttnScoreQK);
    const auto qkv = model::sublayerCosts(m, w,
                                          model::Sublayer::QkvMapping);
    const double layers = static_cast<double>(m.numLayers);
    EXPECT_DOUBLE_EQ(exec.ledger().bytes(Traffic::Kv),
                     layers * (2.0 * qk.dY + qkv.dKv));
}

TEST_F(ExecutorTest, ResidentLayersReduceParamTraffic)
{
    ExecutorConfig stream;
    stream.prefillPolicy = Policy::fullGpu();
    stream.decodePolicy = Policy::fullGpu();
    ExecutorConfig resident = stream;
    resident.residentLayers = 2;  // half of the 4 layers

    CooperativeExecutor a(sys, weights(), stream);
    CooperativeExecutor b(sys, weights(), resident);
    a.generate(prompts(), 1);
    b.generate(prompts(), 1);
    EXPECT_NEAR(b.ledger().bytes(Traffic::Param),
                0.5 * a.ledger().bytes(Traffic::Param), 1.0);
    EXPECT_GT(b.gpuDevice().allocatedBytes(), 0.0);
}

TEST_F(ExecutorTest, MixedPolicyChargesActivationHops)
{
    ExecutorConfig plan;
    plan.prefillPolicy = Policy::attentionOnCpu();
    plan.decodePolicy = Policy::attentionOnCpu();
    CooperativeExecutor exec(sys, weights(), plan);
    exec.generate(prompts(), 1);
    EXPECT_GT(exec.ledger().bytes(Traffic::Activation), 0.0);
    EXPECT_GT(exec.cpuDevice().busyTime(), 0.0);
    EXPECT_GT(exec.gpuDevice().busyTime(), 0.0);
}

TEST_F(ExecutorTest, ModeledLatencyIsPositiveAndComposed)
{
    ExecutorConfig plan;
    plan.prefillPolicy = Policy::fullGpu();
    plan.decodePolicy = Policy::attentionOnCpu();
    CooperativeExecutor exec(sys, weights(), plan);
    exec.generate(prompts(), 4);
    EXPECT_NEAR(exec.modeledSerialLatency(),
                exec.cpuDevice().busyTime() +
                    exec.gpuDevice().busyTime() +
                    exec.ledger().totalTime(),
                1e-12);
    EXPECT_GT(exec.modeledSerialLatency(), 0.0);
}

TEST_F(ExecutorTest, ResetStatsClearsCounters)
{
    ExecutorConfig plan;
    plan.prefillPolicy = Policy::fullGpu();
    plan.decodePolicy = Policy::fullGpu();
    CooperativeExecutor exec(sys, weights(), plan);
    exec.generate(prompts(), 1);
    exec.resetStats();
    EXPECT_DOUBLE_EQ(exec.ledger().totalBytes(), 0.0);
    EXPECT_DOUBLE_EQ(exec.cpuDevice().busyTime(), 0.0);
    EXPECT_EQ(exec.ledger().transferCount(), 0);
}

TEST_F(ExecutorTest, PromptsMustShareLength)
{
    detail::setThrowOnError(true);
    CooperativeExecutor exec(sys, weights(), {});
    std::vector<std::vector<std::int64_t>> ragged{{1, 2, 3}, {1, 2}};
    EXPECT_THROW(exec.generate(ragged, 2), std::logic_error);
    detail::setThrowOnError(false);
}

TEST_F(ExecutorTest, DecodeBeforePrefillPanics)
{
    // forward()'s input checks, each on a pass that would otherwise
    // run: a decode feed against an empty cache, no feeds, a token
    // count that is not rows x T, an empty feed, a token id outside
    // the vocabulary, positions past the context window, and two
    // feeds sharing one cache. No check may leave a cache changed.
    detail::setThrowOnError(true);
    CooperativeExecutor exec(sys, weights(), {});
    KvCache empty(m, 1, 32), pair(m, 2, 32), a(m, 1, m.maxSeqLen);
    step(exec, a, {1, 2, 3}, kPrefill);
    using Feeds = std::vector<ForwardFeed>;
    const auto rejects = [&](const Feeds &feeds) {
        EXPECT_THROW(exec.forward(feeds), std::logic_error);
    };
    rejects({{&empty, {1}, model::Stage::Decode}});
    rejects({});
    rejects({{&pair, {1, 2, 3}, kPrefill}});
    rejects({{&a, {}, model::Stage::Decode}});
    rejects({{&a, {m.vocabSize}, model::Stage::Decode}});
    rejects({{&a, {-1}, model::Stage::Decode}});
    rejects({{&a, std::vector<std::int64_t>(
                      static_cast<std::size_t>(m.maxSeqLen - 2), 1),
              kPrefill}});
    rejects({{&a, {1}, model::Stage::Decode},
             {&a, {2}, model::Stage::Decode}});
    EXPECT_EQ(empty.length(), 0);
    EXPECT_EQ(pair.length(), 0);
    EXPECT_EQ(a.length(), 3);
    detail::setThrowOnError(false);
}

TEST(SimDeviceTest, AllocationTracksCapacity)
{
    SimDevice dev(hw::gpuA100());
    EXPECT_TRUE(dev.tryAllocate(10e9));
    EXPECT_FALSE(dev.tryAllocate(100e9));  // over 40 GB
    dev.release(10e9);
    EXPECT_DOUBLE_EQ(dev.allocatedBytes(), 0.0);
}

TEST(TransferLedgerTest, RecordsByCategory)
{
    TransferLedger ledger(hw::pcie4x16());
    ledger.record(Traffic::Param, 100);
    ledger.record(Traffic::Kv, 50);
    ledger.record(Traffic::Kv, 25);
    EXPECT_DOUBLE_EQ(ledger.bytes(Traffic::Param), 100);
    EXPECT_DOUBLE_EQ(ledger.bytes(Traffic::Kv), 75);
    EXPECT_DOUBLE_EQ(ledger.totalBytes(), 175);
    EXPECT_EQ(ledger.transferCount(), 3);
    EXPECT_GT(ledger.totalTime(), 0.0);
}

TEST(TransferLedgerTest, ZeroByteTransfersIgnored)
{
    TransferLedger ledger(hw::pcie4x16());
    ledger.record(Traffic::Activation, 0);
    EXPECT_EQ(ledger.transferCount(), 0);
    EXPECT_DOUBLE_EQ(ledger.totalTime(), 0.0);
}

} // namespace

namespace {

TEST(ExecutorBatchInvarianceTest, SequencesIndependentOfBatchMates)
{
    // A sequence's outputs must not depend on what else shares its
    // batch — the causal mask and per-sequence KV must isolate them.
    // (This is the functional counterpart of splitting a batch into
    // mini-batches for Optimization-2: results cannot change.)
    using namespace lia;
    using namespace lia::runtime;
    const auto sys = hw::sprA100();
    const auto m = model::tinyOpt();
    Rng rng(99);
    const auto weights = TransformerWeights::random(m, rng);

    std::vector<std::vector<std::int64_t>> all{
        {1, 2, 3, 4, 5, 6},
        {7, 8, 9, 10, 11, 12},
        {13, 14, 15, 16, 17, 18},
        {19, 20, 21, 22, 23, 24}};

    CooperativeExecutor full(sys, weights, {});
    const auto joint = full.generate(all, 6);

    // The same sequences run as two half batches and as singletons.
    CooperativeExecutor half_a(sys, weights, {});
    const auto first =
        half_a.generate({all[0], all[1]}, 6);
    CooperativeExecutor half_b(sys, weights, {});
    const auto second =
        half_b.generate({all[2], all[3]}, 6);
    EXPECT_EQ(joint[0], first[0]);
    EXPECT_EQ(joint[1], first[1]);
    EXPECT_EQ(joint[2], second[0]);
    EXPECT_EQ(joint[3], second[1]);

    CooperativeExecutor solo(sys, weights, {});
    const auto alone = solo.generate({all[2]}, 6);
    EXPECT_EQ(joint[2], alone[0]);
}

TEST(ExecutorInt8Test, ParamTrafficHalvesUnderInt8)
{
    // The runtime and the analytic cost model must price the same
    // parameter bytes: an int8-quantized model streaming through a
    // full-GPU plan moves exactly half the Param bytes of the bf16
    // run (weightBytesPerElement 1.0 vs 2.0), because the ledger
    // charges model::sublayerCosts which read the config's width.
    const auto sys = hw::sprA100();
    ExecutorConfig plan;
    plan.prefillPolicy = Policy::fullGpu();
    plan.decodePolicy = Policy::fullGpu();

    Rng r16(42);
    CooperativeExecutor bf16(
        sys,
        TransformerWeights::random(model::tinyOpt(), r16), plan);

    const auto m8 = model::quantized(model::tinyOpt(),
                                     model::WeightPrecision::Int8);
    ExecutorConfig plan8 = plan;
    plan8.weightPrecision = model::WeightPrecision::Int8;
    Rng r8(42);
    CooperativeExecutor int8(
        sys, TransformerWeights::random(m8, r8), plan8);

    const std::vector<std::vector<std::int64_t>> p = {
        {1, 2, 3, 4, 5, 6, 7, 8}};
    bf16.generate(p, 1);
    int8.generate(p, 1);
    EXPECT_GT(int8.ledger().bytes(Traffic::Param), 0.0);
    EXPECT_DOUBLE_EQ(int8.ledger().bytes(Traffic::Param),
                     0.5 * bf16.ledger().bytes(Traffic::Param));
}

TEST(ExecutorInt8Test, Int8PrecisionDemandsInt8PricedConfig)
{
    // weightPrecision Int8 with a bf16-priced config would execute
    // int8 while the ledger charges bf16 bytes — rejected up front.
    detail::setThrowOnError(true);
    Rng rng(42);
    ExecutorConfig cfg;
    cfg.weightPrecision = model::WeightPrecision::Int8;
    EXPECT_THROW(
        CooperativeExecutor(
            hw::sprA100(),
            TransformerWeights::random(model::tinyOpt(), rng), cfg),
        std::logic_error);
    detail::setThrowOnError(false);
}

} // namespace
