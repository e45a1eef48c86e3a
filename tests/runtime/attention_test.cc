/**
 * @file
 * Property suite for the fused in-place attention kernel (DESIGN.md
 * §7).
 *
 * attention() reads K and V in place through one KvLayerView per batch
 * row and must equal scalarAttention() — the retained
 * copy-then-compose reference — bit for bit (memcmp), at pools of 1, 2
 * and 4 threads. Random scenarios cover batch, the step's token count
 * (1 for decode, k+1 for a speculative verify, chunk-sized for
 * prefill), the history already cached — one shared length or a
 * different one per row, as a batched decode over many sequences
 * sees — slack capacity past the live tokens, head counts including
 * grouped-query attention (kvHeads < heads), and BF16 rounding on and
 * off.
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

/**
 * One attention call: queries plus a strided K/V store per batch row,
 * each row with its own history and slack.
 */
struct Scenario
{
    std::int64_t batch = 1, tokens = 1;
    std::int64_t heads = 1, kvHeads = 1, headDim = 1;
    std::vector<std::int64_t> history, slack;  //!< per batch row
    bool round = true;
    Tensor q;
    std::vector<std::vector<float>> k, v;  //!< per row (maxLen, kvDim)

    std::int64_t
    maxLen(std::int64_t b) const
    {
        const auto i = static_cast<std::size_t>(b);
        return history[i] + tokens + slack[i];
    }

    std::vector<KvLayerView>
    views() const
    {
        std::vector<KvLayerView> out;
        for (std::int64_t b = 0; b < batch; ++b) {
            const auto i = static_cast<std::size_t>(b);
            out.push_back({k[i].data(), v[i].data(),
                           history[i] + tokens, kvHeads * headDim,
                           tokens});
        }
        return out;
    }

    /** Same history and slack on every row. */
    void
    uniform(std::int64_t hist, std::int64_t spare)
    {
        history.assign(static_cast<std::size_t>(batch), hist);
        slack.assign(static_cast<std::size_t>(batch), spare);
    }

    void
    fill(Rng &rng)
    {
        q = Tensor::randomNormal({batch * tokens, heads * headDim}, rng,
                                 1.0);
        k.assign(static_cast<std::size_t>(batch), {});
        v.assign(static_cast<std::size_t>(batch), {});
        for (std::int64_t b = 0; b < batch; ++b) {
            const auto i = static_cast<std::size_t>(b);
            const auto n =
                static_cast<std::size_t>(maxLen(b) * kvHeads * headDim);
            k[i].resize(n);
            v[i].resize(n);
            for (std::size_t e = 0; e < n; ++e) {
                k[i][e] = static_cast<float>(rng.normal(0.0, 1.0));
                v[i][e] = static_cast<float>(rng.normal(0.0, 1.0));
            }
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
    const auto history = [&pick] {
        return pick(0, 3) == 0 ? 0 : pick(1, 120);
    };
    const auto slack = [&pick] { return pick(0, 1) ? 0 : pick(1, 9); };
    if (pick(0, 1) == 0) {
        s.uniform(history(), slack());
    } else {
        // Ragged: every row its own context, as in a batched decode.
        s.batch = pick(2, 8);
        for (std::int64_t b = 0; b < s.batch; ++b) {
            s.history.push_back(history());
            s.slack.push_back(slack());
        }
    }
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
    return attention(s.q, s.views(), s.heads, s.kvHeads, s.headDim,
                     opts);
}

Tensor
runReference(const Scenario &s)
{
    return scalarAttention(s.q, s.views(), s.heads, s.kvHeads, s.headDim,
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
                << " tokens " << s.tokens << " history[0] "
                << s.history.front() << " heads " << s.heads << "/"
                << s.kvHeads << "x" << s.headDim << " bf16 " << s.round
                << " at "
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
    s.uniform(3, 0);
    s.heads = 2;
    s.kvHeads = 1;
    s.headDim = 8;
    s.fill(rng);
    s.v[0][static_cast<std::size_t>((3 + 2) * s.headDim + 1)] =
        std::numeric_limits<float>::infinity();
    const Tensor ref = runReference(s);
    EXPECT_TRUE(std::isnan(ref.at(0, 1)));
    // On every kernel tier this host runs, not only the active one.
    std::vector<const KernelTier *> tiers{&sse2KernelTier()};
    if (avx512KernelTier() != nullptr)
        tiers.push_back(avx512KernelTier());
    for (const auto &pool : contractPools()) {
        const KernelOptions opts{s.round, pool.get()};
        EXPECT_TRUE(bitIdentical(runFused(s, opts), ref));
        for (const KernelTier *tier : tiers)
            EXPECT_TRUE(bitIdentical(
                tier->attention(s.q, s.views(), s.heads, s.kvHeads,
                                s.headDim, opts),
                ref))
                << tier->name << " at " << pool->threadCount()
                << " threads";
    }
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

    std::vector<KvLayerView> views{cache.view(0, 0), cache.view(0, 1)};
    for (KvLayerView &view : views)
        view.queries = tokens;
    ASSERT_EQ(views[0].length, 14);
    ASSERT_EQ(views[1].length, 14);
    const Tensor q =
        Tensor::randomNormal({batch * tokens, m.dModel}, rng, 1.0);
    const Tensor keys = cache.keys(0);
    const Tensor values = cache.values(0);
    const std::int64_t row = 14 * m.kvDim();
    const std::vector<KvLayerView> copies{
        {keys.data(), values.data(), 14, m.kvDim(), tokens},
        {keys.data() + row, values.data() + row, 14, m.kvDim(), tokens}};
    const Tensor ref = scalarAttention(q, copies, m.numHeads, m.kvHeads,
                                       m.headDim, KernelOptions{});
    for (const auto &pool : contractPools())
        EXPECT_TRUE(bitIdentical(
            attention(q, views, m.numHeads, m.kvHeads, m.headDim,
                      KernelOptions{true, pool.get()}),
            ref));
}

TEST(AttentionProperty, RaggedRowsMatchOneRowAtATime)
{
    // A batched decode's rows attend over different context lengths.
    // Each output row must equal attention over that row's view alone:
    // rows never see each other's lengths or keys.
    Rng rng(17);
    Scenario s;
    s.batch = 5;
    s.tokens = 1;
    s.history = {0, 7, 130, 1, 64};
    s.slack = {3, 0, 5, 0, 1};
    s.heads = 4;
    s.kvHeads = 2;
    s.headDim = 32;
    s.fill(rng);
    const std::vector<KvLayerView> views = s.views();
    const std::int64_t d = s.heads * s.headDim;
    for (const auto &pool : contractPools()) {
        const KernelOptions opts{true, pool.get()};
        const Tensor batched =
            attention(s.q, views, s.heads, s.kvHeads, s.headDim, opts);
        ASSERT_TRUE(bitIdentical(batched, runReference(s)));
        for (std::int64_t b = 0; b < s.batch; ++b) {
            Tensor qb({1, d});
            std::memcpy(qb.data(), s.q.data() + b * d,
                        sizeof(float) * static_cast<std::size_t>(d));
            const Tensor alone = attention(
                qb, std::span<const KvLayerView>(&views[b], 1), s.heads,
                s.kvHeads, s.headDim, opts);
            EXPECT_EQ(std::memcmp(alone.data(), batched.data() + b * d,
                                  sizeof(float) *
                                      static_cast<std::size_t>(d)),
                      0)
                << "row " << b << " at " << pool->threadCount()
                << " threads";
        }
    }
}

TEST(AttentionProperty, ShapeMismatchPanics)
{
    Rng rng(3);
    Scenario s;
    s.batch = 2;
    s.tokens = 2;
    s.uniform(1, 0);
    s.heads = 4;
    s.kvHeads = 2;
    s.headDim = 8;
    s.fill(rng);
    detail::setThrowOnError(true);
    // Query width disagrees with heads * headDim.
    EXPECT_THROW(attention(s.q, s.views(), 2, s.kvHeads, s.headDim),
                 std::logic_error);
    // More step tokens than one row's view holds.
    std::vector<KvLayerView> shortViews = s.views();
    shortViews[1].length = 1;
    EXPECT_THROW(attention(s.q, shortViews, s.heads, s.kvHeads,
                           s.headDim),
                 std::logic_error);
    // Query rows disagree with the views' query counts: one view too
    // few, one query too many, and a view with no queries.
    const std::vector<KvLayerView> views = s.views();
    EXPECT_THROW(attention(s.q, std::span<const KvLayerView>(views.data(), 1),
                           s.heads, s.kvHeads, s.headDim),
                 std::logic_error);
    std::vector<KvLayerView> wide = s.views();
    wide[0].queries = 3;
    EXPECT_THROW(attention(s.q, wide, s.heads, s.kvHeads, s.headDim),
                 std::logic_error);
    std::vector<KvLayerView> idle = s.views();
    idle[0].queries = 0;
    idle[1].queries = 4;
    EXPECT_THROW(attention(s.q, idle, s.heads, s.kvHeads, s.headDim),
                 std::logic_error);
    // Heads not a multiple of the KV heads.
    EXPECT_THROW(scalarAttention(s.q, s.views(), s.heads, 3, s.headDim),
                 std::logic_error);
    detail::setThrowOnError(false);
}

} // namespace
