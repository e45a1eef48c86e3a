/**
 * @file
 * Property suite for the fused in-place attention kernel (DESIGN.md
 * §7).
 *
 * attention() reads K and V in place through a KvLayerView and must
 * equal scalarAttention() — the retained copy-then-compose reference
 * — bit for bit (memcmp), at pools of 1, 2 and 4 threads. Random
 * scenarios cover batch, the step's token count (1 for decode, k+1
 * for a speculative verify, chunk-sized for prefill), the history
 * already cached, slack capacity past the live tokens, head counts
 * including grouped-query attention (kvHeads < heads), and BF16
 * rounding on and off.
 *
 * Scenario count scales with LIA_PROPERTY_SCENARIOS like the other
 * property suites.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "model/config.hh"
#include "runtime/kernels.hh"
#include "runtime/kv_cache.hh"

namespace {

using namespace lia;
using namespace lia::runtime;
using base::ThreadPool;

std::size_t
scenarioCount()
{
    if (const char *env = std::getenv("LIA_PROPERTY_SCENARIOS")) {
        const long scenarios = std::atol(env);
        if (scenarios > 0)
            return static_cast<std::size_t>(scenarios);
    }
    return 200;
}

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) *
                           static_cast<std::size_t>(a.numel())) == 0;
}

const std::vector<std::shared_ptr<ThreadPool>> &
contractPools()
{
    static const std::vector<std::shared_ptr<ThreadPool>> pools{
        std::make_shared<ThreadPool>(1), std::make_shared<ThreadPool>(2),
        std::make_shared<ThreadPool>(4)};
    return pools;
}

/** One attention call: queries plus a strided K/V store to view. */
struct Scenario
{
    std::int64_t batch = 1, tokens = 1, history = 0, slack = 0;
    std::int64_t heads = 1, kvHeads = 1, headDim = 1;
    bool round = true;
    Tensor q;
    std::vector<float> k, v;  //!< (batch, maxLen, kvHeads * headDim)

    std::int64_t maxLen() const { return history + tokens + slack; }

    KvLayerView
    view() const
    {
        const std::int64_t kvDim = kvHeads * headDim;
        return {k.data(), v.data(), history + tokens, kvDim,
                maxLen() * kvDim};
    }

    void
    fill(Rng &rng)
    {
        q = Tensor::randomNormal({batch * tokens, heads * headDim}, rng,
                                 1.0);
        const auto n = static_cast<std::size_t>(batch * maxLen() *
                                                kvHeads * headDim);
        k.resize(n);
        v.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            k[i] = static_cast<float>(rng.normal(0.0, 1.0));
            v[i] = static_cast<float>(rng.normal(0.0, 1.0));
        }
    }
};

Scenario
randomScenario(std::mt19937_64 &gen, Rng &rng)
{
    const auto pick = [&gen](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen);
    };
    Scenario s;
    s.batch = pick(1, 3);
    switch (pick(0, 2)) {
    case 0: s.tokens = 1; break;                      // decode
    case 1: s.tokens = pick(1, 8) + 1; break;         // verify k+1
    default: s.tokens = pick(0, 1) ? 32 : 64; break;  // prefill chunk
    }
    s.history = pick(0, 3) == 0 ? 0 : pick(1, 120);
    s.slack = pick(0, 1) ? 0 : pick(1, 9);
    s.kvHeads = pick(1, 3);
    s.heads = s.kvHeads * pick(1, 3);  // GQA when the group is > 1
    s.headDim = pick(0, 2) == 0 ? pick(1, 9) : 8 * pick(1, 4);
    s.round = pick(0, 1) != 0;
    s.fill(rng);
    return s;
}

Tensor
runFused(const Scenario &s, const KernelOptions &opts)
{
    return attention(s.q, s.view(), s.batch, s.tokens, s.heads,
                     s.kvHeads, s.headDim, opts);
}

Tensor
runReference(const Scenario &s)
{
    return scalarAttention(s.q, s.view(), s.batch, s.tokens, s.heads,
                           s.kvHeads, s.headDim,
                           KernelOptions{s.round, nullptr});
}

TEST(AttentionProperty, FusedMatchesScalarReferenceBitForBit)
{
    std::mt19937_64 gen(20261018);
    const std::size_t scenarios = scenarioCount();
    for (std::size_t it = 0; it < scenarios; ++it) {
        Rng rng(static_cast<std::uint64_t>(3000 + it));
        const Scenario s = randomScenario(gen, rng);
        const Tensor ref = runReference(s);
        for (const auto &pool : contractPools()) {
            ASSERT_TRUE(bitIdentical(
                runFused(s, KernelOptions{s.round, pool.get()}), ref))
                << "scenario " << it << ": batch " << s.batch
                << " tokens " << s.tokens << " history " << s.history
                << " heads " << s.heads << "/" << s.kvHeads << "x"
                << s.headDim << " bf16 " << s.round << " at "
                << pool->threadCount() << " threads";
        }
    }
}

TEST(AttentionProperty, MaskedNonFiniteValuesPropagateAsInTheReference)
{
    // S·V runs over every column, masked ones included (p = 0), as the
    // reference's matmul does: an infinite V entry past a row's causal
    // limit turns that row's output to NaN in both, not just in one.
    Rng rng(5);
    Scenario s;
    s.batch = 1;
    s.tokens = 4;
    s.history = 3;
    s.heads = 2;
    s.kvHeads = 1;
    s.headDim = 8;
    s.fill(rng);
    s.v[static_cast<std::size_t>((s.history + 2) * s.headDim + 1)] =
        std::numeric_limits<float>::infinity();
    const Tensor ref = runReference(s);
    EXPECT_TRUE(std::isnan(ref.at(0, 1)));
    for (const auto &pool : contractPools())
        EXPECT_TRUE(bitIdentical(
            runFused(s, KernelOptions{s.round, pool.get()}), ref));
}

TEST(AttentionProperty, ReadsTheCacheInPlaceMidStep)
{
    // The executor's use: layer 0 has appended this step's tokens,
    // layer 1 has not. Attention over the view sees the pending tokens,
    // and equals the reference run over the keys()/values() copies.
    const model::ModelConfig m = model::tinyLlama(64, 2, 4, 2, 64, 256);
    const std::int64_t batch = 2;
    KvCache cache(m, batch, 40);
    Rng rng(9);
    const auto randomKv = [&](std::int64_t tokens) {
        return Tensor::randomNormal({batch, tokens, m.kvDim()}, rng, 1.0);
    };
    for (std::int64_t l = 0; l < m.numLayers; ++l)
        cache.append(l, randomKv(11), randomKv(11));
    const std::int64_t tokens = 3;
    cache.append(0, randomKv(tokens), randomKv(tokens));

    const KvLayerView view = cache.view(0);
    ASSERT_EQ(view.length, 14);
    const Tensor q =
        Tensor::randomNormal({batch * tokens, m.dModel}, rng, 1.0);
    const Tensor keys = cache.keys(0);
    const Tensor values = cache.values(0);
    const KvLayerView copies{keys.data(), values.data(), 14, m.kvDim(),
                             14 * m.kvDim()};
    const Tensor ref =
        scalarAttention(q, copies, batch, tokens, m.numHeads, m.kvHeads,
                        m.headDim, KernelOptions{});
    for (const auto &pool : contractPools())
        EXPECT_TRUE(bitIdentical(
            attention(q, view, batch, tokens, m.numHeads, m.kvHeads,
                      m.headDim, KernelOptions{true, pool.get()}),
            ref));
}

TEST(AttentionProperty, ShapeMismatchPanics)
{
    Rng rng(3);
    Scenario s;
    s.batch = 2;
    s.tokens = 2;
    s.history = 1;
    s.heads = 4;
    s.kvHeads = 2;
    s.headDim = 8;
    s.fill(rng);
    detail::setThrowOnError(true);
    // Query width disagrees with heads * headDim.
    EXPECT_THROW(attention(s.q, s.view(), s.batch, s.tokens, 2,
                           s.kvHeads, s.headDim),
                 std::logic_error);
    // More step tokens than the view holds.
    KvLayerView shortView = s.view();
    shortView.length = 1;
    EXPECT_THROW(attention(s.q, shortView, s.batch, s.tokens, s.heads,
                           s.kvHeads, s.headDim),
                 std::logic_error);
    // Heads not a multiple of the KV heads.
    EXPECT_THROW(scalarAttention(s.q, s.view(), s.batch, s.tokens,
                                 s.heads, 3, s.headDim),
                 std::logic_error);
    detail::setThrowOnError(false);
}

} // namespace
