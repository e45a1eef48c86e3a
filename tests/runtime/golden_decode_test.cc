/**
 * @file
 * Golden-output regression for greedy decoding.
 *
 * Pins the exact greedy token stream of the runtime stack — embed,
 * layer forwards, runtime::Sampler argmax — for fixed synthetic
 * weights (seed 1234) and fixed prompts. Any numeric drift anywhere in
 * the kernels, the BF16 rounding emulation, tie-breaking in the
 * sampler, or the single-sequence forward passes changes these IDs
 * and fails loudly. The expected streams were produced by this very
 * stack and are regression anchors, not external truth.
 */

#include <gtest/gtest.h>

#include <vector>

#include "hw/system.hh"
#include "model/config.hh"
#include "runtime/executor.hh"
#include "runtime/kv_cache.hh"

namespace {

using namespace lia;
using namespace lia::runtime;

constexpr std::uint64_t kWeightSeed = 1234;

CooperativeExecutor
goldenExecutor()
{
    Rng rng(kWeightSeed);
    return CooperativeExecutor(
        hw::sprA100(),
        TransformerWeights::random(model::tinyOpt(), rng), {});
}

/** Fixed prompts: affine token patterns over the tiny vocabulary. */
std::vector<std::vector<std::int64_t>>
goldenPrompts()
{
    return {
        {1, 4, 7, 10, 13, 16, 19, 22},
        {8, 15, 22, 29, 36, 43, 50, 57},
    };
}

// Greedy continuations of the prompts above under seed-1234 weights.
const std::vector<std::int64_t> kGoldenSeq0 = {
    53, 184, 184, 184, 184, 184, 184, 184, 184, 184, 184, 184,
};
const std::vector<std::int64_t> kGoldenSeq1 = {
    124, 107, 66, 66, 66, 107, 103, 107, 103, 107, 107, 107,
};

TEST(GoldenDecodeTest, GreedyStreamMatchesTheCommittedTokens)
{
    auto exec = goldenExecutor();
    const auto out = goldenPrompts();
    const auto generated =
        exec.generate(out, static_cast<std::int64_t>(
                               kGoldenSeq0.size()));
    ASSERT_EQ(generated.size(), 2u);
    EXPECT_EQ(generated[0], kGoldenSeq0)
        << "sequence 0 drifted from the golden greedy stream";
    EXPECT_EQ(generated[1], kGoldenSeq1)
        << "sequence 1 drifted from the golden greedy stream";
}

TEST(GoldenDecodeTest, PerSequencePathReproducesTheGoldenStream)
{
    // Single-sequence forward passes on a caller-owned cache — a
    // prefill pass, then one-token decode passes — must land on the
    // same golden tokens as generate().
    auto exec = goldenExecutor();
    const auto prompts = goldenPrompts();
    const std::vector<const std::vector<std::int64_t> *> golden = {
        &kGoldenSeq0, &kGoldenSeq1};

    for (std::size_t s = 0; s < prompts.size(); ++s) {
        KvCache cache(model::tinyOpt(), 1, 64);
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
