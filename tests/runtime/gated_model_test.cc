/**
 * @file
 * Functional tests for the Llama-style runtime paths: grouped-query
 * attention and the gated (SwiGLU) FFN.
 */

#include <gtest/gtest.h>

#include "core/cost_model.hh"
#include "hw/system.hh"
#include "runtime/executor.hh"

namespace {

using namespace lia;
using namespace lia::runtime;
using core::Policy;

class GatedModelTest : public ::testing::Test
{
  protected:
    hw::SystemConfig sys = hw::sprA100();
    model::ModelConfig m = model::tinyLlama();

    TransformerWeights
    weights(std::uint64_t seed = 77)
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
                p.push_back((11 * b + 5 * t + 2) % m.vocabSize);
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
};

TEST_F(GatedModelTest, ConfigUsesGqaAndGatedFfn)
{
    EXPECT_TRUE(m.gatedFfn);
    EXPECT_EQ(m.kvHeads, 2);
    EXPECT_LT(m.kvDim(), m.dModel);
}

TEST_F(GatedModelTest, GateWeightsAllocated)
{
    const auto w = weights();
    EXPECT_FALSE(w.layers[0].wg.empty());
    EXPECT_EQ(w.layers[0].wg.dim(1), m.ffnDim);
    // FC1 sublayer bytes include the gate (2x the up projection).
    EXPECT_NEAR(w.layers[0].sublayerBf16Bytes(4),
                2.0 * (w.layers[0].w1.bf16Bytes() +
                       w.layers[0].b1.bf16Bytes()),
                1.0);
}

TEST_F(GatedModelTest, GeneratesDeterministically)
{
    CooperativeExecutor a(sys, weights(), {});
    CooperativeExecutor b(sys, weights(), {});
    const auto out = a.generate(prompts(), 6);
    EXPECT_EQ(out, b.generate(prompts(), 6));
    for (const auto &seq : out)
        EXPECT_EQ(seq.size(), 6u);
}

TEST_F(GatedModelTest, PolicyInvarianceHoldsForGatedModels)
{
    ExecutorConfig gpu_plan;
    gpu_plan.prefillPolicy = Policy::fullGpu();
    gpu_plan.decodePolicy = Policy::attentionOnCpu();
    gpu_plan.residentLayers = 1;
    CooperativeExecutor cpu_exec(sys, weights(), {});
    CooperativeExecutor gpu_exec(sys, weights(), gpu_plan);
    EXPECT_EQ(cpu_exec.generate(prompts(), 8),
              gpu_exec.generate(prompts(), 8));
}

TEST_F(GatedModelTest, KvCacheUsesGqaWidth)
{
    CooperativeExecutor exec(sys, weights(), {});
    KvCache cache(m, 2, 32);
    prefill(exec, cache, prompts(2, 8));
    // 2 tensors * B * len * kvDim * layers * 2 bytes.
    EXPECT_DOUBLE_EQ(cache.bf16Bytes(),
                     2.0 * 2 * 8 * m.kvDim() * m.numLayers * 2);
}

TEST_F(GatedModelTest, GqaTransferAccountingMatchesModel)
{
    ExecutorConfig plan;
    plan.prefillPolicy = Policy::fullGpu();
    plan.decodePolicy = Policy::fullGpu();
    CooperativeExecutor exec(sys, weights(), plan);
    KvCache cache(m, 2, 32);
    const ForwardFeed feed{&cache, prefill(exec, cache, prompts(2, 8))};
    exec.resetStats();
    exec.forward({&feed, 1});
    core::CostModel cm(sys, m, {});
    const auto timing = cm.layerTiming(
        {model::Stage::Decode, 2, 9}, Policy::fullGpu());
    EXPECT_NEAR(exec.ledger().bytes(Traffic::Kv),
                static_cast<double>(m.numLayers) * timing.kvPcieBytes,
                1.0);
}

TEST_F(GatedModelTest, TopKSamplingProducesValidTokens)
{
    ExecutorConfig plan;
    plan.sampling.mode = SamplingMode::TopK;
    plan.sampling.topK = 8;
    plan.sampling.temperature = 0.9;
    plan.sampling.seed = 5;
    CooperativeExecutor exec(sys, weights(), plan);
    const auto out = exec.generate(prompts(), 10);
    for (const auto &seq : out) {
        for (auto tok : seq) {
            EXPECT_GE(tok, 0);
            EXPECT_LT(tok, m.vocabSize);
        }
    }
}

TEST_F(GatedModelTest, TopKDiffersFromGreedyEventually)
{
    ExecutorConfig greedy_plan;
    ExecutorConfig topk_plan;
    topk_plan.sampling.mode = SamplingMode::TopK;
    topk_plan.sampling.topK = 16;
    topk_plan.sampling.temperature = 2.0;
    topk_plan.sampling.seed = 11;
    CooperativeExecutor greedy(sys, weights(), greedy_plan);
    CooperativeExecutor topk(sys, weights(), topk_plan);
    EXPECT_NE(greedy.generate(prompts(), 16),
              topk.generate(prompts(), 16));
}

} // namespace

namespace {

TEST(QuantizedRuntimeTest, Int8ModelStillGeneratesAndChargesLess)
{
    using namespace lia;
    using namespace lia::runtime;
    const auto sys = hw::sprA100();
    const auto m = model::tinyOpt();
    Rng r1(31), r2(31);
    auto bf16 = TransformerWeights::random(m, r1);
    auto int8 = TransformerWeights::random(m, r2);
    quantizeWeights(int8, model::WeightPrecision::Int8);

    ExecutorConfig plan;
    plan.prefillPolicy = core::Policy::fullGpu();
    plan.decodePolicy = core::Policy::fullGpu();
    CooperativeExecutor exec16(sys, bf16, plan);
    CooperativeExecutor exec8(sys, int8, plan);

    std::vector<std::vector<std::int64_t>> prompts{{3, 1, 4, 1},
                                                   {5, 9, 2, 6}};
    const auto out16 = exec16.generate(prompts, 6);
    const auto out8 = exec8.generate(prompts, 6);
    for (const auto &seq : out8) {
        EXPECT_EQ(seq.size(), 6u);
        for (auto tok : seq) {
            EXPECT_GE(tok, 0);
            EXPECT_LT(tok, m.vocabSize);
        }
    }
    // Transfer accounting sees the compressed weights.
    EXPECT_NEAR(exec8.ledger().bytes(Traffic::Param),
                0.5 * exec16.ledger().bytes(Traffic::Param), 1.0);
}

} // namespace
