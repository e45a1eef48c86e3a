/**
 * @file
 * Units and property suite for the int8 VNNI-style packed kernels
 * (DESIGN.md §12).
 *
 * Units pin the quantizer's contract: per-column-tile symmetric absmax
 * scales with round-to-nearest codes (round-trip error bounded by half
 * a quantization step), exact-zero tiles producing zero scales and
 * zero codes, and the int32-accumulation viability bound on k.
 *
 * The property suite is the §7 determinism contract applied to the
 * int8 path: random shapes — m=1 decode rows, ragged k/n leaving
 * partial tiles, odd k exercising the padded pair — run matmulInt8 at
 * thread pools of 1, 2, and the host default, and every output must
 * memcmp-equal the retained scalarMatmulInt8 reference. Against fp32
 * the int8 grid changes numerics by design, so accuracy is checked
 * separately with a tolerance.
 *
 * Scenario count scales with LIA_PROPERTY_SCENARIOS like the fp32
 * suite.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "runtime/kernels.hh"

namespace {

using namespace lia;
using namespace lia::runtime;
using base::ThreadPool;

std::size_t
shapeCount()
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

std::vector<std::shared_ptr<ThreadPool>>
contractPools()
{
    std::vector<std::shared_ptr<ThreadPool>> pools;
    pools.push_back(nullptr);  // inline serial path
    pools.push_back(std::make_shared<ThreadPool>(1));
    pools.push_back(std::make_shared<ThreadPool>(2));
    const int host = ThreadPool::defaultThreadCount();
    if (host > 2)
        pools.push_back(std::make_shared<ThreadPool>(host));
    return pools;
}

/** The stored code for element (kk, j): the pack layout is
 *  [tile][kPair][kPackTileWidth cols][2], zero-padded. */
std::int8_t
codeAt(const PackedInt8Matrix &p, std::int64_t kk, std::int64_t j)
{
    const std::int64_t tile = j / kPackTileWidth;
    const std::int64_t jj = j % kPackTileWidth;
    const std::int64_t base =
        tile * p.kPairs() * 2 * kPackTileWidth;
    return p.data[static_cast<std::size_t>(
        base + (kk / 2) * 2 * kPackTileWidth + jj * 2 + (kk & 1))];
}

TEST(Int8PackTest, RoundTripErrorBoundedByHalfAStep)
{
    // Symmetric absmax quantization with round-to-nearest: every
    // element must reconstruct to within scale/2, and the tile's
    // absmax element must hit ±127 exactly.
    Rng rng(31);
    const std::int64_t k = 37, n = 21;  // odd k, ragged n
    const Tensor b = Tensor::randomNormal({k, n}, rng, 1.0);
    const PackedInt8Matrix p = packColumnsInt8(b);
    ASSERT_EQ(p.k, k);
    ASSERT_EQ(p.n, n);
    ASSERT_EQ(p.tiles(), (n + kPackTileWidth - 1) / kPackTileWidth);
    ASSERT_EQ(p.scales.size(), static_cast<std::size_t>(p.tiles()));

    for (std::int64_t tile = 0; tile < p.tiles(); ++tile) {
        const std::int64_t j0 = tile * kPackTileWidth;
        const std::int64_t j1 = std::min(n, j0 + kPackTileWidth);
        float absmax = 0;
        for (std::int64_t j = j0; j < j1; ++j)
            for (std::int64_t kk = 0; kk < k; ++kk)
                absmax = std::max(absmax, std::abs(b.at(kk, j)));
        const float scale = p.scales[static_cast<std::size_t>(tile)];
        EXPECT_FLOAT_EQ(scale, absmax / 127.0f);

        bool saturated = false;
        for (std::int64_t j = j0; j < j1; ++j) {
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const std::int8_t q = codeAt(p, kk, j);
                EXPECT_GE(q, -127);
                EXPECT_LE(q, 127);
                saturated = saturated || q == 127 || q == -127;
                EXPECT_LE(std::abs(static_cast<float>(q) * scale -
                                   b.at(kk, j)),
                          scale * 0.5f + 1e-5f)
                    << "element (" << kk << ", " << j << ")";
            }
        }
        EXPECT_TRUE(saturated)
            << "tile " << tile << " absmax element missed +-127";
    }

    // The padded odd-k byte must be exactly zero everywhere.
    for (std::int64_t j = 0; j < n; ++j)
        EXPECT_EQ(codeAt(p, k, j), 0) << "padding at column " << j;
}

TEST(Int8PackTest, ZeroMatrixPacksToZeroScalesAndCodes)
{
    const Tensor b({16, 12});  // zero-initialised
    const PackedInt8Matrix p = packColumnsInt8(b);
    for (const float s : p.scales)
        EXPECT_EQ(s, 0.0f);
    for (const std::int8_t q : p.data)
        EXPECT_EQ(q, 0);

    // And the matmul against it is exactly the broadcast bias.
    Rng rng(5);
    const Tensor a = Tensor::randomNormal({3, 16}, rng, 1.0);
    const Tensor bias = Tensor::randomNormal({12}, rng, 1.0);
    const Tensor out = matmulInt8(a, p, bias, {false, nullptr});
    for (std::int64_t i = 0; i < 3; ++i)
        for (std::int64_t j = 0; j < 12; ++j)
            EXPECT_EQ(out.at(i, j), bias.at(j));
}

TEST(Int8PackTest, ViabilityBoundTracksInt32Accumulation)
{
    // (k+1)/2 pair-products of at most 2*127*127 = 32258 each must
    // fit int32: floor(INT32_MAX / 32258) = 66572 pairs, so the
    // largest viable k is 133144.
    EXPECT_TRUE(int8PackViable(1));
    EXPECT_TRUE(int8PackViable(4096));
    EXPECT_TRUE(int8PackViable(133144));
    EXPECT_FALSE(int8PackViable(133145));
    EXPECT_FALSE(int8PackViable(1 << 21));
}

TEST(Int8KernelTest, AccuracyWithinQuantizationTolerance)
{
    // Against fp32 the int8 grid changes numerics by design; on
    // well-conditioned gaussian operands the relative error of the
    // 8-bit weight x 8-bit activation product stays small.
    Rng rng(88);
    const std::int64_t m = 8, k = 256, n = 128;
    const Tensor a = Tensor::randomNormal({m, k}, rng, 1.0);
    const Tensor b = Tensor::randomNormal({k, n}, rng, 1.0);
    const Tensor exact = scalarMatmul(a, b, Tensor(), {false, nullptr});
    const Tensor quant =
        matmulInt8(a, packColumnsInt8(b), Tensor(), {false, nullptr});
    double num = 0, den = 0;
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            const double d = exact.at(i, j) - quant.at(i, j);
            num += d * d;
            den += static_cast<double>(exact.at(i, j)) *
                   static_cast<double>(exact.at(i, j));
        }
    }
    EXPECT_LT(std::sqrt(num / den), 0.05)
        << "int8 kernel drifted past quantization tolerance";
}

TEST(Int8KernelProperty, MatchesScalarInt8ReferenceBitForBit)
{
    const auto pools = contractPools();
    std::mt19937_64 gen(20250808);
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_int_distribution<int> mKind(0, 3);
    std::uniform_int_distribution<std::int64_t> mBig(2, 33);
    std::uniform_int_distribution<std::int64_t> kAny(1, 70);
    std::uniform_int_distribution<std::int64_t> nAny(1, 70);

    const std::size_t shapes = shapeCount();
    for (std::size_t it = 0; it < shapes; ++it) {
        std::int64_t m;
        switch (mKind(gen)) {
        case 0: m = 1; break;                    // fused GEMV path
        case 1: m = 4; break;                    // block floor
        default: m = mBig(gen); break;
        }
        const std::int64_t k = kAny(gen), n = nAny(gen);
        Rng rng(static_cast<std::uint64_t>(3000 + it));
        const Tensor a = Tensor::randomNormal({m, k}, rng, 1.0);
        const Tensor b = Tensor::randomNormal({k, n}, rng, 1.0);
        Tensor bias;
        if (coin(gen)) {
            Rng brng(static_cast<std::uint64_t>(8000 + it));
            bias = Tensor::randomNormal({n}, brng, 1.0);
        }
        const bool round = coin(gen) != 0;
        const PackedInt8Matrix packed = packColumnsInt8(b);

        const Tensor ref =
            scalarMatmulInt8(a, packed, bias, {round, nullptr});
        for (const auto &pool : pools) {
            const KernelOptions opts{round, pool.get()};
            const int threads = pool ? pool->threadCount() : 0;
            ASSERT_TRUE(
                bitIdentical(matmulInt8(a, packed, bias, opts), ref))
                << "matmulInt8 " << m << "x" << k << "x" << n << " at "
                << threads << " threads";
        }
    }
}

} // namespace
