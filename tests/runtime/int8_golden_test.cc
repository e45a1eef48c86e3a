/**
 * @file
 * Golden-output regression for greedy decoding on the int8 runtime
 * (DESIGN.md §12).
 *
 * Same fixture as golden_decode_test.cc — seed-1234 synthetic weights,
 * fixed prompts — but the executor stores and executes the projection
 * matrices in the int8 VNNI-style packed format. The quantization grid
 * legitimately changes numerics versus the fp32 golden (sequence 1
 * diverges at the third token), so the int8 stack pins its OWN golden
 * stream: any drift in the quantizer, the tile layout, the fused
 * dequant-GEMV, or the dequant expression changes these IDs and fails
 * loudly. Thread-count invariance is asserted both in-process (pools
 * of 1/2/4) and by the LIA_THREADS=4 re-run registered in CMake.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/thread_pool.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "runtime/executor.hh"
#include "runtime/kv_cache.hh"

namespace {

using namespace lia;
using namespace lia::runtime;

constexpr std::uint64_t kWeightSeed = 1234;

model::ModelConfig
int8Model()
{
    return model::quantized(model::tinyOpt(),
                            model::WeightPrecision::Int8);
}

CooperativeExecutor
goldenExecutor(std::shared_ptr<base::ThreadPool> pool = nullptr)
{
    Rng rng(kWeightSeed);
    ExecutorConfig cfg;
    cfg.weightPrecision = model::WeightPrecision::Int8;
    cfg.pool = std::move(pool);
    return CooperativeExecutor(
        hw::sprA100(), TransformerWeights::random(int8Model(), rng),
        cfg);
}

std::vector<std::vector<std::int64_t>>
goldenPrompts()
{
    return {
        {1, 4, 7, 10, 13, 16, 19, 22},
        {8, 15, 22, 29, 36, 43, 50, 57},
    };
}

// Greedy continuations under seed-1234 weights executed on the int8
// packed path. Produced by this stack; regression anchors, not
// external truth.
const std::vector<std::int64_t> kGoldenSeq0 = {
    53, 184, 184, 184, 184, 184, 184, 184, 184, 184, 184, 184,
};
const std::vector<std::int64_t> kGoldenSeq1 = {
    124, 107, 107, 66, 66, 66, 107, 103, 107, 103, 107, 107,
};

TEST(Int8GoldenDecodeTest, GreedyStreamMatchesTheCommittedTokens)
{
    auto exec = goldenExecutor();
    const auto generated = exec.generate(
        goldenPrompts(),
        static_cast<std::int64_t>(kGoldenSeq0.size()));
    ASSERT_EQ(generated.size(), 2u);
    EXPECT_EQ(generated[0], kGoldenSeq0)
        << "sequence 0 drifted from the int8 golden stream";
    EXPECT_EQ(generated[1], kGoldenSeq1)
        << "sequence 1 drifted from the int8 golden stream";
}

TEST(Int8GoldenDecodeTest, StreamIsIdenticalAcrossPoolSizes)
{
    for (const int threads : {1, 2, 4}) {
        auto exec = goldenExecutor(
            std::make_shared<base::ThreadPool>(threads));
        const auto generated = exec.generate(
            goldenPrompts(),
            static_cast<std::int64_t>(kGoldenSeq0.size()));
        EXPECT_EQ(generated[0], kGoldenSeq0) << threads << " threads";
        EXPECT_EQ(generated[1], kGoldenSeq1) << threads << " threads";
    }
}

TEST(Int8GoldenDecodeTest, PerSequencePathReproducesTheGoldenStream)
{
    // Single-sequence forward passes on a caller-owned cache run the
    // same int8 projections and must land on the same tokens.
    auto exec = goldenExecutor();
    const auto prompts = goldenPrompts();
    const std::vector<const std::vector<std::int64_t> *> golden = {
        &kGoldenSeq0, &kGoldenSeq1};

    for (std::size_t s = 0; s < prompts.size(); ++s) {
        KvCache cache(int8Model(), 1, 64);
        ForwardFeed feed{&cache, prompts[s], model::Stage::Prefill};
        std::vector<std::int64_t> got;
        while (got.size() < golden[s]->size()) {
            got.push_back(exec.forward({&feed, 1}).front());
            feed = {&cache, {got.back()}, model::Stage::Decode};
        }
        EXPECT_EQ(got, *golden[s]) << "sequence " << s;
    }
}

} // namespace
