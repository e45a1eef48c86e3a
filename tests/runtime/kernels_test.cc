/**
 * @file
 * Unit tests for the numeric kernels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "runtime/kernels.hh"

namespace {

using namespace lia;
using namespace lia::runtime;

const KernelOptions kExact{false};  // fp32, no BF16 rounding

TEST(MatmulTest, TwoByTwoKnownResult)
{
    Tensor a({2, 2});
    a.at(0, 0) = 1; a.at(0, 1) = 2;
    a.at(1, 0) = 3; a.at(1, 1) = 4;
    Tensor b({2, 2});
    b.at(0, 0) = 5; b.at(0, 1) = 6;
    b.at(1, 0) = 7; b.at(1, 1) = 8;
    const Tensor c = matmul(a, b, Tensor(), kExact);
    EXPECT_EQ(c.at(0, 0), 19);
    EXPECT_EQ(c.at(0, 1), 22);
    EXPECT_EQ(c.at(1, 0), 43);
    EXPECT_EQ(c.at(1, 1), 50);
}

TEST(MatmulTest, IdentityIsNeutral)
{
    Rng rng(1);
    const Tensor a = Tensor::randomNormal({4, 4}, rng, 1.0);
    Tensor eye({4, 4});
    for (int i = 0; i < 4; ++i)
        eye.at(i, i) = 1.0f;
    const Tensor c = matmul(a, eye, Tensor(), kExact);
    EXPECT_EQ(c.maxAbsDiff(a), 0.0);
}

TEST(MatmulTest, BiasBroadcastsOverRows)
{
    Tensor a({2, 1});
    a.at(0, 0) = 1;
    a.at(1, 0) = 2;
    Tensor b({1, 2});
    b.at(0, 0) = 10;
    b.at(0, 1) = 20;
    Tensor bias({2});
    bias.at(0) = 1;
    bias.at(1) = -1;
    const Tensor c = matmul(a, b, bias, kExact);
    EXPECT_EQ(c.at(0, 0), 11);
    EXPECT_EQ(c.at(0, 1), 19);
    EXPECT_EQ(c.at(1, 0), 21);
    EXPECT_EQ(c.at(1, 1), 39);
}

TEST(MatmulTest, TransposedAgreesWithExplicitTranspose)
{
    Rng rng(2);
    const Tensor a = Tensor::randomNormal({3, 5}, rng, 1.0);
    const Tensor b = Tensor::randomNormal({4, 5}, rng, 1.0);
    Tensor bt({5, 4});
    for (int i = 0; i < 4; ++i)
        for (int k = 0; k < 5; ++k)
            bt.at(k, i) = b.at(i, k);
    const Tensor c1 = matmulTransposed(a, b, kExact);
    const Tensor c2 = matmul(a, bt, Tensor(), kExact);
    EXPECT_LT(c1.maxAbsDiff(c2), 1e-5);
}

TEST(SoftmaxTest, RowsSumToOne)
{
    Rng rng(3);
    Tensor t = Tensor::randomNormal({8, 16}, rng, 2.0);
    softmaxRows(t, kExact);
    for (int i = 0; i < 8; ++i) {
        float sum = 0;
        for (int j = 0; j < 16; ++j) {
            sum += t.at(i, j);
            EXPECT_GE(t.at(i, j), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5);
    }
}

TEST(SoftmaxTest, InvariantToRowShift)
{
    Tensor a({1, 3});
    a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(0, 2) = 3;
    Tensor b = a.clone();
    for (int j = 0; j < 3; ++j)
        b.at(0, j) += 100.0f;
    softmaxRows(a, kExact);
    softmaxRows(b, kExact);
    EXPECT_LT(a.maxAbsDiff(b), 1e-5);
}

TEST(SoftmaxTest, CausalMaskZeroesFuture)
{
    Rng rng(4);
    Tensor t = Tensor::randomNormal({4, 4}, rng, 1.0);
    causalSoftmaxRows(t, 0, kExact);  // row i sees columns 0..i
    for (int i = 0; i < 4; ++i) {
        float sum = 0;
        for (int j = 0; j < 4; ++j) {
            if (j > i) {
                EXPECT_EQ(t.at(i, j), 0.0f);
            }
            sum += t.at(i, j);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5);
    }
}

TEST(SoftmaxTest, DecodeOffsetSeesWholeHistory)
{
    Rng rng(5);
    Tensor t = Tensor::randomNormal({1, 8}, rng, 1.0);
    causalSoftmaxRows(t, 7, kExact);  // one query, 8-token history
    for (int j = 0; j < 8; ++j)
        EXPECT_GT(t.at(0, j), 0.0f);
}

TEST(LayerNormTest, NormalisesToZeroMeanUnitVar)
{
    Rng rng(6);
    const Tensor x = Tensor::randomNormal({4, 64}, rng, 5.0);
    Tensor gain({64}), bias({64});
    for (int j = 0; j < 64; ++j)
        gain.at(j) = 1.0f;
    const Tensor y = layerNorm(x, gain, bias, kExact);
    for (int i = 0; i < 4; ++i) {
        float mean = 0, var = 0;
        for (int j = 0; j < 64; ++j)
            mean += y.at(i, j);
        mean /= 64;
        for (int j = 0; j < 64; ++j)
            var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
        var /= 64;
        EXPECT_NEAR(mean, 0.0f, 1e-4);
        EXPECT_NEAR(var, 1.0f, 1e-2);
    }
}

TEST(LayerNormTest, GainAndBiasApplied)
{
    Tensor x({1, 2});
    x.at(0, 0) = -1;
    x.at(0, 1) = 1;
    Tensor gain({2}), bias({2});
    gain.at(0) = 2; gain.at(1) = 2;
    bias.at(0) = 5; bias.at(1) = 5;
    const Tensor y = layerNorm(x, gain, bias, kExact);
    EXPECT_NEAR(y.at(0, 0), 5.0f - 2.0f, 1e-3);
    EXPECT_NEAR(y.at(0, 1), 5.0f + 2.0f, 1e-3);
}

TEST(ReluTest, ClampsNegatives)
{
    Tensor t({4});
    t.at(0) = -1; t.at(1) = 2; t.at(2) = -0.5; t.at(3) = 0;
    reluInPlace(t, kExact);
    EXPECT_EQ(t.at(0), 0.0f);
    EXPECT_EQ(t.at(1), 2.0f);
    EXPECT_EQ(t.at(2), 0.0f);
    EXPECT_EQ(t.at(3), 0.0f);
}

TEST(ReluTest, EdgeValuesMatchStdMaxBitForBit)
{
    // The vector path must keep std::max(x, 0.0f)'s answer for every
    // input: -0 and NaN pass through unchanged, BF16 rounding on or off.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> in{-0.0f, nan,    -1.0f,   2.0f,  -inf,
                                inf,   1e-45f, -1e-45f, 0.0f,  -nan,
                                3.25f, -7.5f,  1e30f};
    for (const bool round : {false, true}) {
        Tensor t({static_cast<std::int64_t>(in.size())});
        std::memcpy(t.data(), in.data(), sizeof(float) * in.size());
        reluInPlace(t, KernelOptions{round});
        for (std::size_t i = 0; i < in.size(); ++i) {
            Tensor want({1});
            want.at(0) = std::max(in[i], 0.0f);
            if (round)
                want.roundBf16();
            EXPECT_EQ(std::memcmp(&want.at(0), t.data() + i, sizeof(float)),
                      0)
                << "element " << i << " bf16 " << round;
        }
    }
}

TEST(AddTest, ElementwiseSum)
{
    Tensor a({2}), b({2});
    a.at(0) = 1; a.at(1) = 2;
    b.at(0) = 10; b.at(1) = 20;
    const Tensor c = add(a, b, kExact);
    EXPECT_EQ(c.at(0), 11.0f);
    EXPECT_EQ(c.at(1), 22.0f);
}

TEST(ArgmaxTest, PicksRowMaximum)
{
    Tensor t({2, 3});
    t.at(0, 1) = 5.0f;
    t.at(1, 2) = 3.0f;
    const auto idx = argmaxRows(t);
    EXPECT_EQ(idx[0], 1);
    EXPECT_EQ(idx[1], 2);
}

TEST(ArgmaxTest, TiesResolveToFirstIndex)
{
    // Greedy decode depends on deterministic tie-breaking: the lowest
    // index holding the maximum wins, wherever the duplicates sit.
    Tensor t({3, 4});
    t.at(0, 1) = 2.0f; t.at(0, 3) = 2.0f;           // interior tie
    t.at(1, 0) = 7.0f; t.at(1, 1) = 7.0f;
    t.at(1, 2) = 7.0f; t.at(1, 3) = 7.0f;           // all-equal row
    /* row 2 all zeros: a degenerate all-equal tie too */
    const auto idx = argmaxRows(t);
    EXPECT_EQ(idx[0], 1);
    EXPECT_EQ(idx[1], 0);
    EXPECT_EQ(idx[2], 0);
}

TEST(ArgmaxTest, NanLogitsNeverWin)
{
    // A sequence whose logits blow up must not kill the server: NaN
    // entries are skipped deterministically, wherever they sit.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Tensor t({3, 3});
    t.at(0, 0) = nan; t.at(0, 1) = -2.0f; t.at(0, 2) = -5.0f;
    t.at(1, 0) = 1.0f; t.at(1, 1) = nan; t.at(1, 2) = 4.0f;
    t.at(2, 0) = nan; t.at(2, 1) = nan; t.at(2, 2) = nan;
    const auto idx = argmaxRows(t);
    EXPECT_EQ(idx[0], 1);  // NaN in the initial slot never poisons
    EXPECT_EQ(idx[1], 2);
    EXPECT_EQ(idx[2], 0);  // all-NaN row: defined fallback index
}

TEST(KernelTest, Bf16RoundingChangesResultsSlightly)
{
    Rng rng(7);
    const Tensor a = Tensor::randomNormal({16, 32}, rng, 1.0);
    const Tensor b = Tensor::randomNormal({32, 16}, rng, 1.0);
    const Tensor exact = matmul(a, b, Tensor(), kExact);
    const Tensor rounded = matmul(a, b, Tensor(), KernelOptions{true});
    const double diff = exact.maxAbsDiff(rounded);
    EXPECT_GT(diff, 0.0);
    EXPECT_LT(diff, 0.1);
}

TEST(MatmulTest, InnerDimensionMismatchPanics)
{
    lia::detail::setThrowOnError(true);
    Tensor a({2, 3}), b({4, 2});
    EXPECT_THROW(matmul(a, b, Tensor(), kExact), std::logic_error);
    lia::detail::setThrowOnError(false);
}

} // namespace
