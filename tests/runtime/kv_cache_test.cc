/**
 * @file
 * Unit tests for the KV cache.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "runtime/bf16.hh"
#include "runtime/kv_cache.hh"

namespace {

using namespace lia;
using namespace lia::runtime;

class KvCacheTest : public ::testing::Test
{
  protected:
    model::ModelConfig m = model::tinyOpt();  // 4 layers, kvDim 64
    KvCache cache{m, 2, 32};

    Tensor
    filled(std::int64_t tokens, float value)
    {
        Tensor t({2, tokens, m.kvDim()});
        for (std::int64_t i = 0; i < t.numel(); ++i)
            t.data()[i] = value;
        return t;
    }

    void
    appendAllLayers(std::int64_t tokens, float value)
    {
        for (std::int64_t l = 0; l < m.numLayers; ++l)
            cache.append(l, filled(tokens, value),
                         filled(tokens, value + 0.5f));
    }

    /** Append distinct random K and V on every layer. */
    void
    appendRandom(KvCache &target, std::int64_t tokens)
    {
        for (std::int64_t l = 0; l < m.numLayers; ++l)
            target.append(l,
                          Tensor::randomNormal({target.batch(), tokens,
                                                m.kvDim()}, rng, 1.0),
                          Tensor::randomNormal({target.batch(), tokens,
                                                m.kvDim()}, rng, 1.0));
    }

    Rng rng{17};
};

/** Gather layer @p layer's K (or V) through its per-row views:
 *  (B, length, kvDim). */
Tensor
gather(const KvCache &cache, std::int64_t layer, bool values)
{
    const KvLayerView first = cache.view(layer);
    Tensor out({cache.batch(), first.length, first.rowStride});
    for (std::int64_t b = 0; b < cache.batch(); ++b) {
        const KvLayerView view = cache.view(layer, b);
        const float *base = values ? view.v : view.k;
        for (std::int64_t i = 0; i < view.length; ++i)
            for (std::int64_t c = 0; c < view.rowStride; ++c)
                out.at(b, i, c) = base[i * view.rowStride + c];
    }
    return out;
}

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) *
                           static_cast<std::size_t>(a.numel())) == 0;
}

/** Every layer's view reads exactly what keys()/values() copy out. */
void
expectViewsMatchCopies(const KvCache &cache, std::int64_t layers)
{
    for (std::int64_t l = 0; l < layers; ++l) {
        const KvLayerView view = cache.view(l);
        EXPECT_EQ(view.length, cache.keys(l).dim(1));
        EXPECT_TRUE(bitIdentical(gather(cache, l, false),
                                 cache.keys(l)))
            << "layer " << l;
        EXPECT_TRUE(bitIdentical(gather(cache, l, true),
                                 cache.values(l)))
            << "layer " << l;
    }
}

TEST_F(KvCacheTest, LengthAdvancesAfterLastLayer)
{
    EXPECT_EQ(cache.length(), 0);
    for (std::int64_t l = 0; l < m.numLayers; ++l) {
        cache.append(l, filled(4, 1.0f), filled(4, 1.0f));
        if (l + 1 < m.numLayers) {
            EXPECT_EQ(cache.length(), 0);
        }
    }
    EXPECT_EQ(cache.length(), 4);
}

TEST_F(KvCacheTest, MidStepReadsIncludePendingTokens)
{
    cache.append(0, filled(4, 2.0f), filled(4, 3.0f));
    // Layer 0's attention (run right after its append) must see the
    // 4 freshly appended tokens.
    const Tensor k = cache.keys(0);
    EXPECT_EQ(k.dim(1), 4);
    EXPECT_EQ(k.at(0, 3, 0), 2.0f);
}

TEST_F(KvCacheTest, ViewLengthIncludesPendingTokensOnAppendedLayers)
{
    appendAllLayers(3, 1.0f);
    cache.append(0, filled(2, 2.0f), filled(2, 3.0f));
    cache.append(1, filled(2, 2.0f), filled(2, 3.0f));

    // Layers 0 and 1 already hold this step's two tokens; layers 2 and
    // 3 have not been appended yet.
    const KvLayerView v0 = cache.view(0);
    EXPECT_EQ(v0.length, 5);
    EXPECT_EQ(cache.view(1).length, 5);
    EXPECT_EQ(cache.view(2).length, 3);
    EXPECT_EQ(cache.view(3).length, 3);
    EXPECT_EQ(v0.rowStride, m.kvDim());
    // Batch row 1 starts one row capacity (32 tokens) past row 0.
    const KvLayerView r1 = cache.view(0, 1);
    EXPECT_EQ(r1.k - v0.k, 32 * m.kvDim());
    EXPECT_EQ(r1.length, 5);
    // The pending token reads in place through the strides.
    EXPECT_EQ(r1.k[4 * r1.rowStride + 7], 2.0f);
    EXPECT_EQ(r1.v[4 * r1.rowStride + 7], 3.0f);
    EXPECT_EQ(r1.k[2 * r1.rowStride + 7], 1.0f);
    expectViewsMatchCopies(cache, m.numLayers);

    cache.append(2, filled(2, 2.0f), filled(2, 3.0f));
    cache.append(3, filled(2, 2.0f), filled(2, 3.0f));
    EXPECT_EQ(cache.view(3).length, 5);
    EXPECT_EQ(cache.length(), 5);
}

TEST_F(KvCacheTest, ViewMatchesCopiesAcrossCacheOperations)
{
    appendRandom(cache, 5);
    appendRandom(cache, 1);
    expectViewsMatchCopies(cache, m.numLayers);

    cache.truncate(4);
    expectViewsMatchCopies(cache, m.numLayers);
    appendRandom(cache, 2);
    expectViewsMatchCopies(cache, m.numLayers);

    KvCache target(m, 2, 32);
    appendRandom(target, 3);
    ASSERT_TRUE(target.preload(cache.snapshotRange(1, 6)));
    EXPECT_EQ(target.view(0).length, 8);
    expectViewsMatchCopies(target, m.numLayers);

    const Tensor keys = cache.keys(2);
    const Tensor values = cache.values(2);
    const KvSpan parked = cache.snapshotRange(0, cache.length());
    cache.clear();
    EXPECT_EQ(cache.view(2).length, 0);
    ASSERT_TRUE(cache.preload(parked));
    expectViewsMatchCopies(cache, m.numLayers);
    EXPECT_TRUE(bitIdentical(gather(cache, 2, false), keys));
    EXPECT_TRUE(bitIdentical(gather(cache, 2, true), values));
}

TEST_F(KvCacheTest, ValuesAndKeysStoredSeparately)
{
    appendAllLayers(2, 1.0f);
    EXPECT_EQ(cache.keys(1).at(0, 0, 0), 1.0f);
    EXPECT_EQ(cache.values(1).at(0, 0, 0), 1.5f);
}

TEST_F(KvCacheTest, DecodeAppendsGrowContext)
{
    appendAllLayers(4, 1.0f);
    appendAllLayers(1, 2.0f);
    appendAllLayers(1, 3.0f);
    EXPECT_EQ(cache.length(), 6);
    const Tensor k = cache.keys(0);
    EXPECT_EQ(k.at(1, 3, 5), 1.0f);
    EXPECT_EQ(k.at(1, 4, 5), 2.0f);
    EXPECT_EQ(k.at(1, 5, 5), 3.0f);
}

TEST_F(KvCacheTest, OutOfOrderAppendPanics)
{
    detail::setThrowOnError(true);
    EXPECT_THROW(cache.append(1, filled(1, 0), filled(1, 0)),
                 std::logic_error);
    detail::setThrowOnError(false);
}

TEST_F(KvCacheTest, OverflowPanics)
{
    detail::setThrowOnError(true);
    appendAllLayers(32, 1.0f);  // fills max_len
    EXPECT_THROW(cache.append(0, filled(1, 0), filled(1, 0)),
                 std::logic_error);
    detail::setThrowOnError(false);
}

TEST_F(KvCacheTest, BatchMismatchPanics)
{
    detail::setThrowOnError(true);
    Tensor wrong({3, 1, m.kvDim()});
    EXPECT_THROW(cache.append(0, wrong, wrong), std::logic_error);
    detail::setThrowOnError(false);
}

TEST_F(KvCacheTest, Bf16BytesMatchFormula)
{
    appendAllLayers(4, 1.0f);
    // 2 tensors * B=2 * len=4 * kvDim=64 * layers=4 * 2 bytes.
    EXPECT_DOUBLE_EQ(cache.bf16Bytes(), 2.0 * 2 * 4 * 64 * 4 * 2);
}

// --- Eviction / restoration (the serving preemption entry points) ----
// Evict-and-recompute clears the cache. A swap-out parks the whole
// cache as a KvSpan (snapshotRange, then clear) and the swap-in
// preloads it back into the empty cache.

TEST_F(KvCacheTest, EvictFreesExactlyTheHeldBytesAndEmptiesTheCache)
{
    appendAllLayers(4, 1.0f);
    appendAllLayers(1, 2.0f);
    const double held = cache.bf16Bytes();

    const KvSpan parked = cache.snapshotRange(0, cache.length());
    cache.clear();
    EXPECT_DOUBLE_EQ(parked.bytes, held);
    EXPECT_EQ(parked.length, 5);
    EXPECT_FALSE(parked.empty());
    EXPECT_EQ(cache.length(), 0);
    EXPECT_DOUBLE_EQ(cache.bf16Bytes(), 0.0);
    EXPECT_EQ(cache.view(0).k, nullptr);  // the storage went too
}

TEST_F(KvCacheTest, RestoreReturnsTheFreedBytesBitIdentically)
{
    appendAllLayers(4, 1.0f);
    appendAllLayers(1, 2.0f);
    const double held = cache.bf16Bytes();
    const std::uint64_t digest = cache.fingerprint();

    const KvSpan parked = cache.snapshotRange(0, cache.length());
    cache.clear();
    ASSERT_TRUE(cache.preload(parked));
    // Bytes freed match bytes restored and contents are bit-identical.
    EXPECT_DOUBLE_EQ(cache.bf16Bytes(), held);
    EXPECT_DOUBLE_EQ(parked.bytes, held);
    EXPECT_EQ(cache.length(), 5);
    EXPECT_EQ(cache.fingerprint(), digest);
    EXPECT_EQ(cache.keys(0).at(1, 4, 5), 2.0f);
    EXPECT_EQ(cache.values(0).at(1, 3, 5), 1.5f);
}

TEST_F(KvCacheTest, EvictedCacheRemainsUsableForRecompute)
{
    appendAllLayers(3, 1.0f);
    cache.clear();  // the evict-and-recompute exit
    appendAllLayers(3, 4.0f);
    EXPECT_EQ(cache.length(), 3);
    EXPECT_EQ(cache.keys(0).at(0, 2, 0), 4.0f);
}

TEST_F(KvCacheTest, NeverWrittenCacheEvictsAndRestoresEmpty)
{
    // A cache holds no storage before its first write, and clearing
    // it allocates none; it then takes appends and preloads as usual.
    EXPECT_EQ(cache.view(0).length, 0);
    EXPECT_EQ(cache.view(0).k, nullptr);
    cache.clear();
    EXPECT_EQ(cache.length(), 0);
    EXPECT_EQ(cache.view(0).k, nullptr);
    appendAllLayers(2, 3.0f);
    EXPECT_EQ(cache.keys(3).at(1, 1, 0), 3.0f);

    KvCache fresh(m, 2, 32);
    fresh.clear();
    ASSERT_TRUE(fresh.preload(cache.snapshotRange(0, 2)));
    EXPECT_EQ(fresh.fingerprint(), cache.fingerprint());
}

TEST_F(KvCacheTest, EvictMidStepPanics)
{
    detail::setThrowOnError(true);
    cache.append(0, filled(1, 0), filled(1, 0));  // layer 0 only
    EXPECT_THROW(cache.clear(), std::logic_error);
    EXPECT_THROW(cache.snapshotRange(0, 1), std::logic_error);
    detail::setThrowOnError(false);
}

TEST_F(KvCacheTest, FingerprintIsPrefixConsistent)
{
    appendAllLayers(4, 1.0f);
    const std::uint64_t at4 = cache.fingerprint();
    appendAllLayers(1, 9.0f);
    // The first four tokens digest identically whatever follows; the
    // full digests differ once contents diverge.
    EXPECT_EQ(cache.fingerprint(4), at4);
    EXPECT_NE(cache.fingerprint(), at4);
}

TEST_F(KvCacheTest, SnapshotRangeIsCompactAndPreloads)
{
    // Distinguishable per-step contents: token i holds value i.
    for (std::int64_t i = 0; i < 6; ++i)
        appendAllLayers(1, static_cast<float>(i));

    const KvSpan span = cache.snapshotRange(2, 5);
    EXPECT_EQ(span.length, 3);
    EXPECT_EQ(span.key(0, 0, 0, 0), 2.0f);
    EXPECT_EQ(span.key(0, 0, 2, 0), 4.0f);

    // Preload appends the span at the target's current end; contents
    // land bit-identically.
    KvCache target(m, 2, 32);
    EXPECT_TRUE(target.preload(span));
    EXPECT_EQ(target.length(), 3);
    EXPECT_EQ(target.keys(1).at(0, 1, 0), 3.0f);
    EXPECT_EQ(target.values(1).at(0, 1, 0), 3.5f);

    // A second preload stacks behind the first.
    EXPECT_TRUE(target.preload(cache.snapshotRange(0, 2)));
    EXPECT_EQ(target.length(), 5);
    EXPECT_EQ(target.keys(0).at(0, 3, 0), 0.0f);
}

TEST_F(KvCacheTest, PreloadRejectsMisfits)
{
    appendAllLayers(4, 1.0f);
    const KvSpan span = cache.snapshotRange(0, 4);

    KvCache tiny(m, 2, 3);  // too short for the span
    EXPECT_FALSE(tiny.preload(span));
    KvCache wrongBatch(m, 1, 32);
    EXPECT_FALSE(wrongBatch.preload(span));
    KvSpan empty;
    EXPECT_FALSE(cache.preload(empty));
}

// --- Truncation (the speculative-decoding reject path) ---------------

TEST_F(KvCacheTest, TruncatePreservesTheSurvivingPrefixBitIdentically)
{
    for (std::int64_t i = 0; i < 6; ++i)
        appendAllLayers(1, static_cast<float>(i));
    const std::uint64_t at4 = cache.fingerprint(4);

    cache.truncate(4);
    EXPECT_EQ(cache.length(), 4);
    // The surviving prefix digests exactly as it did before the
    // rejected suffix was dropped, and its contents still read back.
    EXPECT_EQ(cache.fingerprint(), at4);
    EXPECT_EQ(cache.keys(0).at(0, 3, 0), 3.0f);
    // 2 tensors * B=2 * len=4 * kvDim=64 * layers=4 * 2 bytes.
    EXPECT_DOUBLE_EQ(cache.bf16Bytes(), 2.0 * 2 * 4 * 64 * 4 * 2);
}

TEST_F(KvCacheTest, AppendsAfterTruncateOverwriteTheRejectedSuffix)
{
    for (std::int64_t i = 0; i < 6; ++i)
        appendAllLayers(1, static_cast<float>(i));
    cache.truncate(3);
    appendAllLayers(1, 42.0f);
    EXPECT_EQ(cache.length(), 4);
    // The new token landed where rejected token 3 used to be, and the
    // stale tokens 4..5 are unreachable.
    EXPECT_EQ(cache.keys(0).at(0, 3, 0), 42.0f);
    EXPECT_EQ(cache.keys(0).dim(1), 4);
}

TEST_F(KvCacheTest, TruncateToCurrentLengthAndToZeroAreConsistent)
{
    appendAllLayers(3, 1.0f);
    const std::uint64_t digest = cache.fingerprint();
    cache.truncate(3);  // no-op
    EXPECT_EQ(cache.length(), 3);
    EXPECT_EQ(cache.fingerprint(), digest);

    cache.truncate(0);  // full rollback
    EXPECT_EQ(cache.length(), 0);
    EXPECT_DOUBLE_EQ(cache.bf16Bytes(), 0.0);
    appendAllLayers(2, 7.0f);  // still usable afterwards
    EXPECT_EQ(cache.length(), 2);
}

TEST_F(KvCacheTest, TruncateComposesWithEvictAndRestore)
{
    for (std::int64_t i = 0; i < 5; ++i)
        appendAllLayers(1, static_cast<float>(i));
    cache.truncate(4);
    const std::uint64_t digest = cache.fingerprint();

    // The truncated cache swaps out and back with only the surviving
    // prefix: the parked span carries 4 tokens, the restore
    // fingerprints identically to the pre-swap truncated cache.
    const KvSpan parked = cache.snapshotRange(0, cache.length());
    cache.clear();
    EXPECT_EQ(parked.length, 4);
    ASSERT_TRUE(cache.preload(parked));
    EXPECT_EQ(cache.length(), 4);
    EXPECT_EQ(cache.fingerprint(), digest);
}

TEST_F(KvCacheTest, TruncateComposesWithSnapshotRangePins)
{
    // A prefix-cache pin (snapshotRange copy) taken before a
    // speculative rollback must be unaffected by it: the span is a
    // copy, not a view.
    for (std::int64_t i = 0; i < 6; ++i)
        appendAllLayers(1, static_cast<float>(i));
    const KvSpan pinned = cache.snapshotRange(0, 4);

    cache.truncate(2);
    EXPECT_EQ(pinned.length, 4);
    EXPECT_EQ(pinned.key(0, 0, 3, 0), 3.0f);

    // And the pin still preloads into a fresh cache bit-identically.
    KvCache target(m, 2, 32);
    ASSERT_TRUE(target.preload(pinned));
    EXPECT_EQ(target.length(), 4);
    EXPECT_EQ(target.keys(0).at(0, 3, 0), 3.0f);
}

TEST_F(KvCacheTest, TruncateMidStepPanics)
{
    detail::setThrowOnError(true);
    cache.append(0, filled(1, 0), filled(1, 0));  // layer 0 only
    EXPECT_THROW(cache.truncate(0), std::logic_error);
    detail::setThrowOnError(false);
}

TEST_F(KvCacheTest, TruncatePastTheEndPanics)
{
    appendAllLayers(2, 1.0f);
    detail::setThrowOnError(true);
    EXPECT_THROW(cache.truncate(3), std::logic_error);
    EXPECT_THROW(cache.truncate(-1), std::logic_error);
    detail::setThrowOnError(false);
}

TEST_F(KvCacheTest, SplitHeadAndHeadCopyPartitionBytes)
{
    for (std::int64_t i = 0; i < 5; ++i)
        appendAllLayers(1, static_cast<float>(i));
    KvSpan span = cache.snapshotRange(0, 5);
    const double whole = span.bytes;

    const KvSpan copy = span.headCopy(2);
    EXPECT_EQ(copy.length, 2);
    EXPECT_EQ(copy.key(0, 0, 1, 0), 1.0f);
    EXPECT_EQ(span.length, 5);  // headCopy never mutates

    KvSpan head = span.splitHead(2);
    EXPECT_EQ(head.length, 2);
    EXPECT_EQ(span.length, 3);
    EXPECT_DOUBLE_EQ(head.bytes + span.bytes, whole);
    // The tail now starts at the original token 2.
    EXPECT_EQ(span.key(0, 0, 0, 0), 2.0f);
    // The head is bit-identical to the non-mutating copy.
    EXPECT_EQ(head.key(2, 1, 1, 5), copy.key(2, 1, 1, 5));
}

// --- One-pass block digests ------------------------------------------

/** Boundaries at 0, every 16 tokens, @p length and past it. */
std::vector<std::int64_t>
blockBoundaries(std::int64_t length)
{
    std::vector<std::int64_t> boundaries;
    for (std::int64_t b = 0; b <= length; b += 16)
        boundaries.push_back(b);
    boundaries.push_back(length);
    boundaries.push_back(length + 16);
    return boundaries;
}

TEST(KvCacheFingerprintsTest, EveryBoundaryMatchesTheSingleFingerprint)
{
    // A narrow model (2 layers, kvDim 8) keeps the quadratic
    // single-boundary reference cheap at every length up to 300.
    const model::ModelConfig small = model::tinyOpt(8, 2, 2);
    Rng rng(5);
    for (std::int64_t batch : {1, 2}) {
        KvCache grown(small, batch, 300);
        for (std::int64_t len = 0; len <= 300; ++len) {
            if (len > 0) {
                for (std::int64_t l = 0; l < small.numLayers; ++l)
                    grown.append(
                        l,
                        Tensor::randomNormal({batch, 1, small.kvDim()},
                                             rng, 1.0),
                        Tensor::randomNormal({batch, 1, small.kvDim()},
                                             rng, 1.0));
            }
            const std::vector<std::int64_t> boundaries =
                blockBoundaries(len);
            const std::vector<std::uint64_t> digests =
                grown.fingerprints(boundaries);
            ASSERT_EQ(digests.size(), boundaries.size());
            for (std::size_t i = 0; i < boundaries.size(); ++i)
                ASSERT_EQ(digests[i], grown.fingerprint(boundaries[i]))
                    << "batch " << batch << ", length " << len
                    << ", boundary " << boundaries[i];
        }
    }
}

TEST_F(KvCacheTest, FingerprintsAreThreadCountInvariant)
{
    KvCache big(m, 2, 300);
    appendRandom(big, 300);
    const std::vector<std::int64_t> boundaries = blockBoundaries(300);
    base::ThreadPool one(1);
    const std::vector<std::uint64_t> want =
        big.fingerprints(boundaries, &one);
    for (int threads : {2, 4}) {
        base::ThreadPool pool(threads);
        EXPECT_EQ(big.fingerprints(boundaries, &pool), want)
            << threads << " threads";
        EXPECT_EQ(big.fingerprint(-1, &pool), want[want.size() - 2])
            << threads << " threads";
    }
}

TEST_F(KvCacheTest, FingerprintValueIsPinned)
{
    // The digest of this fill, as computed before fingerprints()
    // existed: the prefix checks compare against the same values.
    appendRandom(cache, 20);
    const std::uint64_t pinned = 0x2428c39e38dcf521ull;
    EXPECT_EQ(cache.fingerprint(16), pinned);
    EXPECT_EQ(cache.fingerprints({0, 16, 20, 40}).at(1), pinned);
}

// --- KvSpan: BF16-resident prefix spans ------------------------------

/** Bit patterns of tokens [start, start + tokens) of every layer's K
 *  and V in every row of @p cache, read through its views. */
std::vector<std::uint32_t>
rangeBits(const KvCache &cache, std::int64_t layers, std::int64_t start,
          std::int64_t tokens)
{
    std::vector<std::uint32_t> bits;
    for (std::int64_t l = 0; l < layers; ++l) {
        for (std::int64_t b = 0; b < cache.batch(); ++b) {
            const KvLayerView view = cache.view(l, b);
            EXPECT_LE(start + tokens, view.length);
            for (const float *side : {view.k, view.v}) {
                const float *row = side + start * view.rowStride;
                const std::size_t count =
                    static_cast<std::size_t>(tokens * view.rowStride);
                const std::size_t at = bits.size();
                bits.resize(at + count);
                std::memcpy(bits.data() + at, row,
                            sizeof(float) * count);
            }
        }
    }
    return bits;
}

float
fromBits(std::uint32_t bits)
{
    float value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

class KvSpanTest : public KvCacheTest
{
  protected:
    /** Append @p tokens random tokens on every layer; each value is
     *  BF16-exact when @p bf16, otherwise arbitrary FP32 with NaN
     *  payloads, infinities, signed zeros and denormals mixed in. */
    void
    appendValues(std::int64_t tokens, bool bf16)
    {
        static const std::uint32_t specials[] = {
            0x7fc00001u, 0xffa12345u, 0x7f800001u,  // NaN payloads
            0x7f800000u, 0xff800000u,               // +-inf
            0x80000000u, 0x00000000u,               // -0.0, +0.0
            0x00000001u, 0x807fffffu, 0x00012345u,  // denormals
        };
        for (std::int64_t l = 0; l < m.numLayers; ++l) {
            Tensor k = Tensor::randomNormal({2, tokens, m.kvDim()}, rng,
                                            1.0);
            Tensor v = Tensor::randomNormal({2, tokens, m.kvDim()}, rng,
                                            1.0);
            for (Tensor *t : {&k, &v}) {
                for (std::int64_t i = 0; i < t->numel(); ++i) {
                    if (i % 7 == 3)
                        t->data()[i] = fromBits(specials[i / 7 % 10]);
                    if (bf16) {
                        std::uint32_t bits;
                        std::memcpy(&bits, t->data() + i, sizeof(bits));
                        t->data()[i] = fromBits(bits & 0xffff0000u);
                    }
                }
            }
            cache.append(l, k, v);
        }
    }

    /** fp32 bytes of a span of @p tokens tokens of this cache. */
    double
    fp32Bytes(std::int64_t tokens) const
    {
        return 4.0 * 2 * 2 * static_cast<double>(tokens * m.kvDim()) *
               static_cast<double>(m.numLayers);
    }

    /** Preload @p spans in order into a fresh cache; its tokens must
     *  match tokens [start, ...) of the source cache bit for bit. */
    void
    expectPreloadsBitExact(const std::vector<const KvSpan *> &spans,
                           std::int64_t start)
    {
        KvCache target(m, 2, 32);
        for (const KvSpan *span : spans)
            ASSERT_TRUE(target.preload(*span));
        EXPECT_EQ(rangeBits(target, m.numLayers, 0, target.length()),
                  rangeBits(cache, m.numLayers, start, target.length()));
    }
};

TEST_F(KvSpanTest, Bf16ExactSpansRoundTripAtHalfTheFp32Bytes)
{
    appendValues(9, true);
    const KvSpan span = cache.snapshotRange(2, 8);
    EXPECT_TRUE(span.low.empty());
    EXPECT_DOUBLE_EQ(span.heldBytes(), span.bytes);
    EXPECT_DOUBLE_EQ(span.heldBytes(), fp32Bytes(6) / 2);
    expectPreloadsBitExact({&span}, 2);

    KvSpan tail = span;
    const KvSpan copy = tail.headCopy(4);
    const KvSpan head = tail.splitHead(4);
    EXPECT_TRUE(head.low.empty());
    EXPECT_TRUE(tail.low.empty());
    expectPreloadsBitExact({&copy}, 2);
    expectPreloadsBitExact({&head, &tail}, 2);
}

TEST_F(KvSpanTest, ArbitraryFp32SpansRoundTripBitExactly)
{
    appendValues(9, false);
    const KvSpan span = cache.snapshotRange(1, 9);
    EXPECT_FALSE(span.low.empty());
    EXPECT_DOUBLE_EQ(span.heldBytes(), fp32Bytes(8));
    // The ledger still counts BF16 bytes, whatever the span holds.
    EXPECT_DOUBLE_EQ(span.bytes, fp32Bytes(8) / 2);
    expectPreloadsBitExact({&span}, 1);

    // Element reads widen both planes: a NaN payload survives.
    const KvLayerView source = cache.view(0, 0);
    for (std::int64_t c = 0; c < m.kvDim(); ++c) {
        const float want = source.k[1 * source.rowStride + c];
        const float got = span.key(0, 0, 0, c);
        EXPECT_EQ(std::memcmp(&want, &got, sizeof(want)), 0) << c;
    }

    KvSpan tail = span;
    const KvSpan copy = tail.headCopy(3);
    const KvSpan head = tail.splitHead(3);
    expectPreloadsBitExact({&copy}, 1);
    expectPreloadsBitExact({&head, &tail}, 1);
}

TEST_F(KvSpanTest, LowPlaneFollowsTheTokensThatNeedIt)
{
    // BF16-exact tokens 0..3, then arbitrary tokens 4..6: a split at
    // the seam leaves the head without a low plane.
    appendValues(4, true);
    appendValues(3, false);
    KvSpan span = cache.snapshotRange(0, 7);
    EXPECT_FALSE(span.low.empty());
    const KvSpan head = span.splitHead(4);
    EXPECT_TRUE(head.low.empty());
    EXPECT_FALSE(span.low.empty());
    EXPECT_DOUBLE_EQ(head.heldBytes(), fp32Bytes(4) / 2);
    EXPECT_FALSE(span.headCopy(2).low.empty());
    expectPreloadsBitExact({&head, &span}, 0);
}

} // namespace
