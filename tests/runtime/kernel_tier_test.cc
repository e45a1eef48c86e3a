/**
 * @file
 * Property suite over the kernel tiers (DESIGN.md §7, §12).
 *
 * Every tier's entry points are called directly — the SSE2 tier
 * always, the AVX-512 tier where CPUID reports BW+VL+VNNI (skipped
 * elsewhere) — so each tier the host can run is tested whichever one
 * the kernels picked. Each must memcmp-equal the scalar references:
 * matmulPacked against scalarMatmul, matmulInt8 against
 * scalarMatmulInt8, the activation quantizer against the rule itself
 * (absmax scale, lrintf, clamp to ±127), and attention against
 * scalarAttention. Shapes cover m 1–9, odd and even k including 1,
 * partial final tiles, bias on and off, BF16 rounding on and off, and
 * pools of 1, 2 and 4 threads, with sizes large enough that the
 * work-sized dispatch splits some loops. Attention covers decode,
 * verify and prefill-chunk token counts, one per row or mixed in one
 * call, ragged per-row lengths (under 16 keys, not a multiple of
 * 16), head widths of 8 to 64,
 * grouped-query heads, BF16 rounding on and off, and non-finite keys,
 * queries and values.
 *
 * Scenario count scales with LIA_PROPERTY_SCENARIOS like the other
 * property suites.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/thread_pool.hh"
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
    return 150;
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

/** The quantizer's documented rule, written out independently. */
float
referenceQuantize(const float *row, std::int64_t k, std::int8_t *out)
{
    float absmax = 0.0f;
    for (std::int64_t i = 0; i < k; ++i)
        absmax = std::max(absmax, std::fabs(row[i]));
    if (absmax == 0.0f)
        return 0.0f;
    const float inv = 127.0f / absmax;
    for (std::int64_t i = 0; i < k; ++i)
        out[i] = static_cast<std::int8_t>(
            std::clamp(std::lrintf(row[i] * inv), -127l, 127l));
    return absmax / 127.0f;
}

/** One GEMM/GEMV shape with its operands. */
struct Shape
{
    std::int64_t m = 1, k = 1, n = 1;
    bool bias = false, round = true;
    Tensor a, b, biasT;
};

Shape
randomShape(std::mt19937_64 &gen, Rng &rng)
{
    const auto pick = [&gen](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen);
    };
    Shape s;
    s.m = pick(1, 9);
    switch (pick(0, 3)) {
    case 0: s.k = pick(1, 3); break;             // k = 1 and tiny k
    case 1: s.k = 2 * pick(1, 40) + 1; break;    // odd k
    case 2: s.k = 2 * pick(1, 64); break;        // even k
    default: s.k = pick(0, 1) ? 128 : 512; break;  // the models' k
    }
    switch (pick(0, 2)) {
    case 0: s.n = pick(1, 7); break;             // one partial tile
    case 1: s.n = 8 * pick(1, 40) + pick(1, 7);  // partial final tile
        break;
    default: s.n = 8 * pick(1, 80); break;       // whole tiles
    }
    s.bias = pick(0, 1) != 0;
    s.round = pick(0, 1) != 0;
    s.a = Tensor::randomNormal({s.m, s.k}, rng, 1.0);
    s.b = Tensor::randomNormal({s.k, s.n}, rng, 0.1);
    s.biasT = s.bias ? Tensor::randomNormal({s.n}, rng, 0.5) : Tensor();
    return s;
}

std::string
describe(const Shape &s, const KernelTier &tier, int threads)
{
    return "tier " + std::string(tier.name) + " m " +
           std::to_string(s.m) + " k " + std::to_string(s.k) + " n " +
           std::to_string(s.n) + " bias " + std::to_string(s.bias) +
           " bf16 " + std::to_string(s.round) + " threads " +
           std::to_string(threads);
}

/** The tiers under test, by name: null when the host lacks one. */
const KernelTier *
tierNamed(const std::string &name)
{
    return name == "avx512" ? avx512KernelTier() : &sse2KernelTier();
}

class KernelTierProperty : public ::testing::TestWithParam<std::string>
{
  protected:
    const KernelTier *tier = nullptr;

    void
    SetUp() override
    {
        tier = tierNamed(GetParam());
        if (tier == nullptr)
            GTEST_SKIP() << "this host's CPUID lacks AVX-512 BW+VL+VNNI";
    }
};

TEST_P(KernelTierProperty, PackedMatchesScalarMatmul)
{
    std::mt19937_64 gen(20261019);
    for (std::size_t it = 0; it < scenarioCount(); ++it) {
        Rng rng(static_cast<std::uint64_t>(7000 + it));
        const Shape s = randomShape(gen, rng);
        const PackedMatrix packed = packColumns(s.b);
        const Tensor ref =
            scalarMatmul(s.a, s.b, s.biasT, KernelOptions{s.round});
        for (const auto &pool : contractPools()) {
            const Tensor got = tier->matmulPacked(
                s.a, packed, s.biasT, KernelOptions{s.round, pool.get()});
            ASSERT_TRUE(bitIdentical(got, ref))
                << "scenario " << it << ": "
                << describe(s, *tier, pool->threadCount());
        }
    }
}

TEST_P(KernelTierProperty, Int8MatchesScalarInt8)
{
    std::mt19937_64 gen(20261020);
    for (std::size_t it = 0; it < scenarioCount(); ++it) {
        Rng rng(static_cast<std::uint64_t>(9000 + it));
        const Shape s = randomShape(gen, rng);
        const PackedInt8Matrix packed = packColumnsInt8(s.b);
        const Tensor ref = scalarMatmulInt8(s.a, packed, s.biasT,
                                            KernelOptions{s.round});
        for (const auto &pool : contractPools()) {
            const Tensor got = tier->matmulInt8(
                s.a, packed, s.biasT, KernelOptions{s.round, pool.get()});
            ASSERT_TRUE(bitIdentical(got, ref))
                << "scenario " << it << ": "
                << describe(s, *tier, pool->threadCount());
        }
    }
}

TEST_P(KernelTierProperty, QuantizerMatchesTheRuleCodeForCode)
{
    std::mt19937_64 gen(20261021);
    const auto check = [this](const std::vector<float> &row,
                              const std::string &what) {
        const auto k = static_cast<std::int64_t>(row.size());
        const auto padded = static_cast<std::size_t>(2 * ((k + 1) / 2));
        std::vector<std::int8_t> want(padded, 0), got(padded, 0);
        const float sw = referenceQuantize(row.data(), k, want.data());
        const float sg = tier->quantizeRowInt8(row.data(), k, got.data());
        EXPECT_EQ(std::memcmp(&sw, &sg, sizeof(float)), 0) << what;
        EXPECT_EQ(want, got) << what;
    };
    for (std::size_t it = 0; it < scenarioCount(); ++it) {
        const auto k =
            std::uniform_int_distribution<std::int64_t>(1, 300)(gen);
        std::normal_distribution<float> normal(0.0f, 2.0f);
        std::vector<float> row(static_cast<std::size_t>(k));
        for (float &x : row)
            x = normal(gen);
        check(row, "random row of " + std::to_string(k));
    }
    // Exact halves round to even under both lrintf and cvtps2dq: with
    // absmax 127 the multiplier is exactly 1.
    check({127.0f, 0.5f, 1.5f, 2.5f, -2.5f, -3.5f, 126.5f, -0.5f, 3.0f},
          "ties");
    check(std::vector<float>(37, 0.0f), "all zero");
    check({0.0f, -0.0f, 1e-30f, -1e-30f}, "denormal-ish");
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    check({1.0f, nan, -2.0f, 3.0f, nan}, "NaN entries");
    check({1.0f, inf, -2.0f, -inf, 0.0f}, "infinite entries");
    check(std::vector<float>(17, nan), "all NaN");
}

/** One attention call: queries and a K/V store per batch row. */
struct AttentionCase
{
    std::int64_t heads = 1, kvHeads = 1, headDim = 8;
    bool round = true;
    std::vector<std::int64_t> queries;     //!< per row: this step's tokens
    std::vector<std::int64_t> lengths;     //!< per row, queries included
    Tensor q;
    std::vector<std::vector<float>> k, v;  //!< per row (length, kvDim)

    /** Add a row of @p tokens queries over @p history earlier keys. */
    void
    row(std::int64_t tokens, std::int64_t history)
    {
        queries.push_back(tokens);
        lengths.push_back(history + tokens);
    }

    std::vector<KvLayerView>
    views() const
    {
        std::vector<KvLayerView> out;
        for (std::size_t b = 0; b < lengths.size(); ++b)
            out.push_back({k[b].data(), v[b].data(), lengths[b],
                           kvHeads * headDim, queries[b]});
        return out;
    }

    /** Random operands; each row's store holds exactly its length, so
     *  a read past it is a heap overflow under ASan. */
    void
    fill(Rng &rng)
    {
        std::int64_t rows = 0;
        for (const std::int64_t t : queries)
            rows += t;
        q = Tensor::randomNormal({rows, heads * headDim}, rng, 1.0);
        k.assign(lengths.size(), {});
        v.assign(lengths.size(), {});
        for (std::size_t b = 0; b < lengths.size(); ++b) {
            const auto n =
                static_cast<std::size_t>(lengths[b] * kvHeads * headDim);
            k[b].resize(n);
            v[b].resize(n);
            for (std::size_t e = 0; e < n; ++e) {
                k[b][e] = static_cast<float>(rng.normal(0.0, 1.0));
                v[b][e] = static_cast<float>(rng.normal(0.0, 1.0));
            }
        }
    }

    std::string
    describe(const KernelTier &tier, int threads) const
    {
        std::string out = "tier " + std::string(tier.name) + " heads " +
                          std::to_string(heads) + "/" +
                          std::to_string(kvHeads) + "x" +
                          std::to_string(headDim) + " bf16 " +
                          std::to_string(round) + " rows (queries/length)";
        for (std::size_t b = 0; b < lengths.size(); ++b)
            out += " " + std::to_string(queries[b]) + "/" +
                   std::to_string(lengths[b]);
        return out + " threads " + std::to_string(threads);
    }
};

/** Run @p c on @p tier at every contract pool against scalarAttention. */
void
expectAttentionMatches(const AttentionCase &c, const KernelTier &tier,
                       const std::string &what)
{
    const std::vector<KvLayerView> views = c.views();
    const Tensor ref = scalarAttention(c.q, views, c.heads, c.kvHeads,
                                       c.headDim, KernelOptions{c.round});
    for (const auto &pool : contractPools()) {
        const Tensor got =
            tier.attention(c.q, views, c.heads, c.kvHeads, c.headDim,
                           KernelOptions{c.round, pool.get()});
        ASSERT_TRUE(bitIdentical(got, ref))
            << what << ": " << c.describe(tier, pool->threadCount());
    }
}

TEST_P(KernelTierProperty, AttentionMatchesScalarAttention)
{
    // Decode (1), short verifies (2, 3), the smallest K-panel chunk
    // (4, 5) and prefill chunks, some not a multiple of the 4-row S·V
    // block; head widths below, at and between whole 16-lane vectors.
    const std::int64_t tokens[] = {1, 2, 3, 4, 5, 37, 128, 130};
    // The mix one forward pass puts in a single call.
    const std::int64_t mixed[] = {1, 3, 4, 37, 128};
    const std::int64_t dims[] = {8, 24, 32, 40, 64};
    std::mt19937_64 gen(20261022);
    const auto pick = [&gen](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen);
    };
    for (std::size_t it = 0; it < scenarioCount(); ++it) {
        Rng rng(static_cast<std::uint64_t>(11000 + it));
        AttentionCase c;
        // Every third scenario gives each row its own query count.
        const bool ragged = it % 3 == 2;
        const std::int64_t uniform = tokens[it % 8];
        c.headDim = dims[(it / 8) % 5];
        c.round = (it / 40) % 2 == 0;
        c.kvHeads = pick(1, 2);
        c.heads = c.kvHeads * pick(1, 3);  // GQA when the group is > 1
        // Ragged histories: none, under one 16-key block, and longer
        // ones that are mostly not a multiple of 16.
        const std::int64_t batch =
            ragged ? pick(2, 5) : uniform > 64 ? pick(1, 2) : pick(1, 4);
        for (std::int64_t b = 0; b < batch; ++b) {
            const std::int64_t t = ragged ? mixed[pick(0, 4)] : uniform;
            std::int64_t history = 0;
            switch (pick(0, 2)) {
            case 0: history = pick(0, std::max<std::int64_t>(0, 15 - t));
                break;
            case 1: history = pick(0, 40); break;
            default: history = pick(41, t > 64 ? 200 : 320); break;
            }
            c.row(t, history);
        }
        c.fill(rng);
        expectAttentionMatches(c, *tier, "scenario " + std::to_string(it));
    }
}

TEST_P(KernelTierProperty, AttentionNonFiniteValuesMatchScalarAttention)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    // Uniform query counts, then rows of different counts in one call.
    const std::vector<std::vector<std::int64_t>> shapes{
        {1, 1}, {3, 3}, {4, 4}, {37, 37}, {1, 37}, {128, 4}, {3, 1}};
    for (const std::vector<std::int64_t> &shape : shapes) {
        for (const std::int64_t headDim : {8, 32}) {
            const std::int64_t t0 = shape[0], t1 = shape[1];
            AttentionCase c;
            c.heads = 2;
            c.kvHeads = 1;
            c.headDim = headDim;
            c.row(t0, 40);
            c.row(t1, 3);
            const auto at = [&](std::int64_t key, std::int64_t col) {
                return static_cast<std::size_t>(key * headDim + col);
            };
            const auto run = [&](const std::string &what,
                                 const auto &poison) {
                Rng rng(static_cast<std::uint64_t>(t0 * 1000 + t1 * 100 +
                                                   headDim));
                c.fill(rng);
                poison();
                expectAttentionMatches(c, *tier,
                                       what + " at queries " +
                                           std::to_string(t0) + "/" +
                                           std::to_string(t1));
            };
            // A NaN score at key 0 sticks in the row max; a NaN score
            // past key 0 is skipped by it, as std::max does. (Two NaNs
            // with different payloads are not a usable case: which one
            // a sum keeps depends on how the compiler orders the
            // operands of a commutative add.)
            run("NaN key 0", [&] { c.k[0][at(0, 1)] = nan; });
            run("NaN key 21", [&] { c.k[0][at(21, 2)] = nan; });
            run("NaN last key of the short row",
                [&] { c.k[1][at(t1 + 2, 0)] = nan; });
            // Infinite scores: max +inf makes inf - inf = NaN.
            run("+inf key 5", [&] { c.k[0][at(5, 0)] = inf; });
            run("-inf key 0", [&] { c.k[0][at(0, 0)] = -inf; });
            // Masked columns still enter S·V as 0 x v.
            run("inf value past the limit",
                [&] { c.v[0][at(t0 + 39, 1)] = inf; });
            run("NaN query", [&] { c.q.at(0, 3) = nan; });
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Tiers, KernelTierProperty,
                         ::testing::Values("sse2", "avx512"),
                         [](const auto &info) { return info.param; });

TEST(KernelTierSelection, ActiveTierIsTheWidestTheHostRuns)
{
    const KernelTier *wide = avx512KernelTier();
    const KernelTier &active = activeKernelTier();
    EXPECT_EQ(&active, wide != nullptr ? wide : &sse2KernelTier());
    // Chosen once: every call returns the same tier.
    EXPECT_EQ(&activeKernelTier(), &active);
}

TEST(KernelTierSelection, PublicEntryPointsRunTheActiveTier)
{
    Rng rng(5);
    const Tensor a = Tensor::randomNormal({3, 64}, rng, 1.0);
    const Tensor b = Tensor::randomNormal({64, 40}, rng, 0.1);
    const PackedMatrix fp = packColumns(b);
    const PackedInt8Matrix q8 = packColumnsInt8(b);
    const KernelTier &active = activeKernelTier();
    EXPECT_TRUE(bitIdentical(matmulPacked(a, fp, Tensor()),
                             active.matmulPacked(a, fp, Tensor(), {})));
    EXPECT_TRUE(bitIdentical(matmulInt8(a, q8, Tensor()),
                             active.matmulInt8(a, q8, Tensor(), {})));
}

} // namespace
