/**
 * @file
 * Property suite over the kernel tiers (DESIGN.md §7, §12).
 *
 * Every tier's entry points are called directly — the SSE2 tier
 * always, the AVX-512 tier where CPUID reports BW+VL+VNNI (skipped
 * elsewhere) — so each tier the host can run is tested whichever one
 * the kernels picked. Each must memcmp-equal the scalar references:
 * matmulPacked against scalarMatmul, matmulInt8 against
 * scalarMatmulInt8, and the activation quantizer against the rule
 * itself (absmax scale, lrintf, clamp to ±127). Shapes cover m 1–9,
 * odd and even k including 1, partial final tiles, bias on and off,
 * BF16 rounding on and off, and pools of 1, 2 and 4 threads, with
 * sizes large enough that the work-sized dispatch splits some loops.
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
