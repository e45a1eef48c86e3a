/**
 * @file
 * Unit tests for LLM architecture descriptors.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "base/logging.hh"
#include "model/config.hh"

namespace {

using namespace lia::model;

TEST(ModelConfigTest, Opt175bDimensions)
{
    const auto m = opt175b();
    EXPECT_EQ(m.dModel, 12288);
    EXPECT_EQ(m.numLayers, 96);
    EXPECT_EQ(m.numHeads, 96);
    EXPECT_EQ(m.headDim, 128);
    EXPECT_EQ(m.ffnDim, 4 * 12288);
    EXPECT_EQ(m.maxSeqLen, 2048);
}

TEST(ModelConfigTest, Opt175bParameterCountNear175Billion)
{
    EXPECT_NEAR(opt175b().totalParams(), 175e9, 8e9);
}

TEST(ModelConfigTest, Opt30bParameterCountNear30Billion)
{
    EXPECT_NEAR(opt30b().totalParams(), 30e9, 2e9);
}

TEST(ModelConfigTest, Opt66bParameterCountNear66Billion)
{
    EXPECT_NEAR(opt66b().totalParams(), 66e9, 3e9);
}

TEST(ModelConfigTest, Opt13bParameterCountNear13Billion)
{
    EXPECT_NEAR(opt13b().totalParams(), 13e9, 1e9);
}

TEST(ModelConfigTest, Llama70bParameterCountNear70Billion)
{
    EXPECT_NEAR(llama2_70b().totalParams(), 70e9, 4e9);
}

TEST(ModelConfigTest, Llama70bUsesGroupedQueryAttention)
{
    const auto m = llama2_70b();
    EXPECT_EQ(m.kvHeads, 8);
    EXPECT_EQ(m.kvDim(), 8 * 128);
    EXPECT_TRUE(m.gatedFfn);
}

TEST(ModelConfigTest, Bloom176bParameterCountNear176Billion)
{
    EXPECT_NEAR(bloom176b().totalParams(), 176e9, 10e9);
}

TEST(ModelConfigTest, DecoderLayerBytesMatchPaperExample)
{
    // §5.2: LIA's per-decoder-layer unit is ~1.2 GB for OPT-30B.
    EXPECT_NEAR(opt30b().decoderLayerParamBytes(), 1.2e9, 0.15e9);
}

TEST(ModelConfigTest, Opt175bLayerIs12DSquaredParams)
{
    const auto m = opt175b();
    EXPECT_DOUBLE_EQ(m.decoderLayerParams(),
                     12.0 * m.dModel * m.dModel);
}

TEST(ModelConfigTest, KvBytesPerTokenFormula)
{
    const auto m = opt175b();
    // 2 (K and V) * kvDim * layers * 2 bytes.
    EXPECT_DOUBLE_EQ(m.kvBytesPerToken(),
                     2.0 * 2.0 * 12288 * 96);
}

TEST(ModelConfigTest, MoeStoresAllExperts)
{
    const auto moe = moeMixtral8x7b();
    ModelConfig dense = moe;
    dense.numExperts = 1;
    dense.expertTopK = 1;
    const double moe_ffn =
        moe.decoderLayerParams() - 2.0 * moe.dModel * moe.dModel -
        2.0 * moe.dModel * moe.kvDim();
    const double dense_ffn =
        dense.decoderLayerParams() - 2.0 * dense.dModel * dense.dModel -
        2.0 * dense.dModel * dense.kvDim();
    EXPECT_NEAR(moe_ffn / dense_ffn, 8.0, 1e-9);
}

TEST(ModelConfigTest, TinyModelValidates)
{
    const auto m = tinyOpt();
    EXPECT_EQ(m.dModel, 64);
    EXPECT_EQ(m.numLayers, 4);
    EXPECT_NO_THROW(m.validate());
}

TEST(ModelConfigTest, ContextOverflowNamesTheLimit)
{
    const auto m = opt30b();
    EXPECT_EQ(m.contextOverflow(2048), "");
    EXPECT_EQ(m.contextOverflow(2049),
              "context of 2049 tokens exceeds OPT-30B's 2048-token limit");
}

TEST(ModelConfigTest, ValidateRejectsMismatchedHeads)
{
    lia::detail::setThrowOnError(true);
    ModelConfig bad = opt30b();
    bad.headDim = 100;  // heads * headDim != dModel
    EXPECT_THROW(bad.validate(), std::logic_error);
    lia::detail::setThrowOnError(false);
}

TEST(ModelConfigTest, ValidateRejectsBadKvHeads)
{
    lia::detail::setThrowOnError(true);
    ModelConfig bad = llama2_70b();
    bad.kvHeads = 7;  // 64 % 7 != 0
    EXPECT_THROW(bad.validate(), std::logic_error);
    lia::detail::setThrowOnError(false);
}

TEST(ModelConfigTest, ValidateRejectsBadTopK)
{
    lia::detail::setThrowOnError(true);
    ModelConfig bad = moeMixtral8x7b();
    bad.expertTopK = 9;  // > numExperts
    EXPECT_THROW(bad.validate(), std::logic_error);
    lia::detail::setThrowOnError(false);
}

} // namespace
