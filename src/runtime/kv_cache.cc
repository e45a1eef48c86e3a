#include "runtime/kv_cache.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "base/logging.hh"
#include "base/thread_pool.hh"

namespace lia {
namespace runtime {

namespace {

/** BF16 footprint of K+V spans of this geometry. */
double
spanBf16Bytes(std::int64_t batch, std::int64_t length, std::int64_t kv,
              std::int64_t layers)
{
    return 2.0 * 2.0 * static_cast<double>(batch) *
           static_cast<double>(length) * static_cast<double>(kv) *
           static_cast<double>(layers);
}

/**
 * Copy @p count floats for each of @p batch rows: row b reads from
 * src + b * src_stride and writes to dst + b * dst_stride.
 */
void
copyBatchRows(float *dst, std::int64_t dst_stride, const float *src,
              std::int64_t src_stride, std::int64_t batch,
              std::int64_t count)
{
    if (count == 0)
        return;
    for (std::int64_t b = 0; b < batch; ++b)
        std::memcpy(dst + b * dst_stride, src + b * src_stride,
                    sizeof(float) * static_cast<std::size_t>(count));
}

/** Plane offset of token 0 of (@p layer, K = 0 / V = 1, batch row). */
std::size_t
rowOffset(const KvSpan &span, std::int64_t layer, int side,
          std::int64_t row)
{
    return static_cast<std::size_t>(
        ((layer * 2 + side) * span.batch + row) * span.length *
        span.width);
}

/**
 * Narrow @p count floats from @p src into @p span's planes at plane
 * offset @p at. The low plane is allocated (zeroed) the first time a
 * value with non-zero low bits arrives.
 */
void
narrowInto(KvSpan &span, std::size_t at, const float *src,
           std::int64_t count)
{
    std::uint16_t *high = span.high.data() + at;
    std::uint32_t lowBits = 0;
    for (std::int64_t i = 0; i < count; ++i) {
        std::uint32_t bits;
        std::memcpy(&bits, src + i, sizeof(bits));
        high[i] = static_cast<std::uint16_t>(bits >> 16);
        lowBits |= bits & 0xffffu;
    }
    if (lowBits == 0)
        return;
    if (span.low.empty())
        span.low.assign(span.high.size(), 0);
    std::uint16_t *low = span.low.data() + at;
    for (std::int64_t i = 0; i < count; ++i) {
        std::uint32_t bits;
        std::memcpy(&bits, src + i, sizeof(bits));
        low[i] = static_cast<std::uint16_t>(bits);
    }
}

/** Widen @p count values of @p span from plane offset @p at. */
void
widenFrom(float *dst, const KvSpan &span, std::size_t at,
          std::int64_t count)
{
    const std::uint16_t *high = span.high.data() + at;
    const std::uint16_t *low =
        span.low.empty() ? nullptr : span.low.data() + at;
    for (std::int64_t i = 0; i < count; ++i) {
        const std::uint32_t bits =
            static_cast<std::uint32_t>(high[i]) << 16 |
            (low != nullptr ? low[i] : 0u);
        std::memcpy(dst + i, &bits, sizeof(bits));
    }
}

/** A span of this geometry with a zeroed high plane and no low one. */
KvSpan
shapedSpan(std::int64_t layers, std::int64_t batch, std::int64_t width,
           std::int64_t length)
{
    KvSpan span;
    span.length = length;
    span.layers = layers;
    span.batch = batch;
    span.width = width;
    span.bytes = spanBf16Bytes(batch, length, width, layers);
    span.high.resize(
        static_cast<std::size_t>(2 * layers * batch * length * width));
    return span;
}

/** Copy of tokens [@p from, @p to) of @p span. */
KvSpan
tokenRange(const KvSpan &span, std::int64_t from, std::int64_t to)
{
    KvSpan out =
        shapedSpan(span.layers, span.batch, span.width, to - from);
    if (!span.low.empty())
        out.low.resize(out.high.size());
    const auto count = static_cast<std::size_t>(out.length * span.width);
    const auto skip = static_cast<std::size_t>(from * span.width);
    for (std::int64_t l = 0; l < span.layers; ++l) {
        for (int side = 0; side < 2; ++side) {
            for (std::int64_t b = 0; b < span.batch; ++b) {
                const std::size_t src =
                    rowOffset(span, l, side, b) + skip;
                const std::size_t dst = rowOffset(out, l, side, b);
                std::copy_n(span.high.begin() + src, count,
                            out.high.begin() + dst);
                if (!span.low.empty())
                    std::copy_n(span.low.begin() + src, count,
                                out.low.begin() + dst);
            }
        }
    }
    // The range may hold no value with low bits of its own.
    if (std::all_of(out.low.begin(), out.low.end(),
                    [](std::uint16_t bits) { return bits == 0; }))
        out.low = {};
    return out;
}

/** One widened element of side @p side (K = 0, V = 1). */
float
spanElement(const KvSpan &span, int side, std::int64_t layer,
            std::int64_t row, std::int64_t token, std::int64_t column)
{
    LIA_ASSERT(layer >= 0 && layer < span.layers && row >= 0 &&
                   row < span.batch && token >= 0 &&
                   token < span.length && column >= 0 &&
                   column < span.width,
               "span element (", layer, ", ", row, ", ", token, ", ",
               column, ") out of range");
    float out;
    widenFrom(&out, span,
              rowOffset(span, layer, side, row) +
                  static_cast<std::size_t>(token * span.width + column),
              1);
    return out;
}

} // namespace

float
KvSpan::key(std::int64_t layer, std::int64_t row, std::int64_t token,
            std::int64_t column) const
{
    return spanElement(*this, 0, layer, row, token, column);
}

float
KvSpan::value(std::int64_t layer, std::int64_t row, std::int64_t token,
              std::int64_t column) const
{
    return spanElement(*this, 1, layer, row, token, column);
}

double
KvSpan::heldBytes() const
{
    return 2.0 * static_cast<double>(high.size() + low.size());
}

KvSpan
KvSpan::splitHead(std::int64_t tokens)
{
    LIA_ASSERT(tokens > 0 && tokens < length,
               "splitHead tokens ", tokens, " out of (0, ", length, ")");
    KvSpan head = tokenRange(*this, 0, tokens);
    *this = tokenRange(*this, tokens, length);
    return head;
}

KvSpan
KvSpan::headCopy(std::int64_t tokens) const
{
    LIA_ASSERT(tokens > 0 && tokens <= length,
               "headCopy tokens ", tokens, " out of (0, ", length, "]");
    return tokenRange(*this, 0, tokens);
}

KvCache::KvCache(const model::ModelConfig &config, std::int64_t batch,
                 std::int64_t max_len)
    : config_(config), batch_(batch), maxLen_(max_len)
{
    LIA_ASSERT(batch > 0 && max_len > 0, "bad KV cache dimensions");
}

void
KvCache::allocate()
{
    if (!keys_.empty())
        return;
    keys_.reserve(static_cast<std::size_t>(config_.numLayers));
    values_.reserve(static_cast<std::size_t>(config_.numLayers));
    for (std::int64_t l = 0; l < config_.numLayers; ++l) {
        keys_.emplace_back(std::vector<std::int64_t>{
            batch_, maxLen_, config_.kvDim()});
        values_.emplace_back(std::vector<std::int64_t>{
            batch_, maxLen_, config_.kvDim()});
    }
}

void
KvCache::append(std::int64_t layer, const Tensor &k, const Tensor &v)
{
    LIA_ASSERT(k.ndim() == 3 && v.ndim() == 3, "KV must be 3-D");
    LIA_ASSERT(k.dim(0) == batch_ && v.dim(0) == batch_,
               "KV batch mismatch");
    LIA_ASSERT(k.dim(2) == config_.kvDim() &&
               v.dim(2) == config_.kvDim(), "KV width mismatch");
    LIA_ASSERT(v.dim(1) == k.dim(1), "K/V token count mismatch");
    append(layer, k.data(), v.data(), k.dim(1));
}

void
KvCache::append(std::int64_t layer, const float *k, const float *v,
                std::int64_t tokens)
{
    LIA_ASSERT(layer == nextLayer_,
               "layers must append in order; expected ", nextLayer_,
               " got ", layer);
    LIA_ASSERT(length_ + tokens <= maxLen_, "KV cache overflow");
    if (layer == 0)
        pendingTokens_ = tokens;
    LIA_ASSERT(tokens == pendingTokens_,
               "inconsistent token count across layers");
    allocate();

    const std::int64_t kv = config_.kvDim();
    const std::int64_t at = length_ * kv;
    copyBatchRows(keys_[static_cast<std::size_t>(layer)].data() + at,
                  maxLen_ * kv, k, tokens * kv, batch_, tokens * kv);
    copyBatchRows(values_[static_cast<std::size_t>(layer)].data() + at,
                  maxLen_ * kv, v, tokens * kv, batch_, tokens * kv);

    ++nextLayer_;
    if (nextLayer_ == config_.numLayers) {
        nextLayer_ = 0;
        length_ += pendingTokens_;
        pendingTokens_ = 0;
    }
}

KvLayerView
KvCache::view(std::int64_t layer, std::int64_t row) const
{
    LIA_ASSERT(layer >= 0 && layer < config_.numLayers, "bad layer");
    LIA_ASSERT(row >= 0 && row < batch_, "bad batch row ", row);
    const auto l = static_cast<std::size_t>(layer);
    const std::int64_t kv = config_.kvDim();
    if (keys_.empty())
        return {nullptr, nullptr, 0, kv};  // never written
    // Layers appended earlier in this step already hold its tokens.
    const std::int64_t len =
        length_ + (layer < nextLayer_ ? pendingTokens_ : 0);
    const std::int64_t at = row * maxLen_ * kv;
    return {keys_[l].data() + at, values_[l].data() + at, len, kv};
}

Tensor
KvCache::keys(std::int64_t layer) const
{
    return copyLayer(layer, keys_);
}

Tensor
KvCache::values(std::int64_t layer) const
{
    return copyLayer(layer, values_);
}

Tensor
KvCache::copyLayer(std::int64_t layer, const std::vector<Tensor> &side) const
{
    const KvLayerView lv = view(layer);
    Tensor out({batch_, lv.length, lv.rowStride});
    if (side.empty())
        return out;
    const std::int64_t row = lv.length * lv.rowStride;
    copyBatchRows(out.data(), row,
                  side[static_cast<std::size_t>(layer)].data(),
                  maxLen_ * lv.rowStride, batch_, row);
    return out;
}

void
KvCache::clear()
{
    LIA_ASSERT(nextLayer_ == 0 && pendingTokens_ == 0,
               "clearing a cache mid-step (", nextLayer_,
               " layers appended)");
    // The next write allocates fresh storage; until then the cleared
    // cache holds none.
    keys_ = {};
    values_ = {};
    length_ = 0;
}

void
KvCache::truncate(std::int64_t new_length)
{
    LIA_ASSERT(nextLayer_ == 0 && pendingTokens_ == 0,
               "truncating a cache mid-step (", nextLayer_,
               " layers appended)");
    LIA_ASSERT(new_length >= 0 && new_length <= length_,
               "truncate to ", new_length, " of ", length_, " tokens");
    // Appends always overwrite slots past length_, so the rejected
    // positions' stale bytes are unreachable through keys()/values()/
    // fingerprint()/snapshotRange() — dropping the cursor suffices.
    length_ = new_length;
}

KvSpan
KvCache::snapshotRange(std::int64_t start, std::int64_t end) const
{
    LIA_ASSERT(nextLayer_ == 0 && pendingTokens_ == 0,
               "snapshotting a cache mid-step");
    LIA_ASSERT(start >= 0 && start < end && end <= length_,
               "bad snapshot range [", start, ", ", end, ") of ",
               length_);
    const std::int64_t kv = config_.kvDim();
    const std::int64_t t = end - start;
    KvSpan span = shapedSpan(config_.numLayers, batch_, kv, t);
    for (std::int64_t l = 0; l < config_.numLayers; ++l) {
        const auto layer = static_cast<std::size_t>(l);
        for (std::int64_t b = 0; b < batch_; ++b) {
            const std::int64_t at = (b * maxLen_ + start) * kv;
            narrowInto(span, rowOffset(span, l, 0, b),
                       keys_[layer].data() + at, t * kv);
            narrowInto(span, rowOffset(span, l, 1, b),
                       values_[layer].data() + at, t * kv);
        }
    }
    return span;
}

bool
KvCache::preload(const KvSpan &span)
{
    if (nextLayer_ > 0 || pendingTokens_ > 0)
        return false;  // never splice into a half-appended step
    if (span.empty() || span.layers != config_.numLayers ||
        span.batch != batch_ || span.width != config_.kvDim())
        return false;
    if (length_ + span.length > maxLen_)
        return false;

    allocate();
    const std::int64_t kv = config_.kvDim();
    for (std::int64_t l = 0; l < config_.numLayers; ++l) {
        const auto layer = static_cast<std::size_t>(l);
        for (std::int64_t b = 0; b < batch_; ++b) {
            const std::int64_t at = (b * maxLen_ + length_) * kv;
            widenFrom(keys_[layer].data() + at, span,
                      rowOffset(span, l, 0, b), span.length * kv);
            widenFrom(values_[layer].data() + at, span,
                      rowOffset(span, l, 1, b), span.length * kv);
        }
    }
    length_ += span.length;
    return true;
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/** FNV-1a over one FP32 bit pattern. */
std::uint64_t
mixFloat(std::uint64_t hash, float value)
{
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    for (int shift = 0; shift < 32; shift += 8) {
        hash ^= (bits >> shift) & 0xffu;
        hash *= kFnvPrime;
    }
    return hash;
}

} // namespace

std::uint64_t
KvCache::fingerprint(std::int64_t tokens, base::ThreadPool *pool) const
{
    const std::int64_t boundary = tokens < 0 ? length_ : tokens;
    std::uint64_t digest;
    digestPrefixes(&boundary, 1, &digest, pool);
    return digest;
}

std::vector<std::uint64_t>
KvCache::fingerprints(const std::vector<std::int64_t> &boundaries,
                      base::ThreadPool *pool) const
{
    std::vector<std::uint64_t> digests(boundaries.size());
    digestPrefixes(boundaries.data(), boundaries.size(), digests.data(),
                   pool);
    return digests;
}

void
KvCache::digestPrefixes(const std::int64_t *boundaries,
                        std::size_t count, std::uint64_t *out,
                        base::ThreadPool *pool) const
{
    for (std::size_t i = 0; i < count; ++i)
        LIA_ASSERT(boundaries[i] >= 0 &&
                       (i == 0 || boundaries[i] >= boundaries[i - 1]),
                   "fingerprint boundaries must be non-negative and "
                   "non-decreasing");
    if (count == 0)
        return;
    const std::int64_t len = std::min(boundaries[count - 1], length_);
    const std::int64_t kv = config_.kvDim();
    if (pool == nullptr)
        pool = &base::ThreadPool::shared();

    // Per-token FNV-1a digests computed in parallel, then folded once
    // in position order, reading the running hash at each boundary:
    // every digest is a pure function of the stored bits, so two
    // caches holding bit-identical KV for a prefix fingerprint
    // identically at any thread count.
    std::vector<std::uint64_t> perToken(static_cast<std::size_t>(len));
    pool->parallelFor(
        len, 2, [&](std::int64_t t0, std::int64_t t1) {
            for (std::int64_t i = t0; i < t1; ++i) {
                std::uint64_t hash = kFnvOffset;
                for (std::int64_t l = 0; l < config_.numLayers; ++l) {
                    const Tensor &kd =
                        keys_[static_cast<std::size_t>(l)];
                    const Tensor &vd =
                        values_[static_cast<std::size_t>(l)];
                    for (std::int64_t b = 0; b < batch_; ++b) {
                        const std::int64_t base =
                            (b * maxLen_ + i) * kv;
                        const float *kr = kd.data() + base;
                        const float *vr = vd.data() + base;
                        for (std::int64_t c = 0; c < kv; ++c) {
                            hash = mixFloat(hash, kr[c]);
                            hash = mixFloat(hash, vr[c]);
                        }
                    }
                }
                perToken[static_cast<std::size_t>(i)] = hash;
            }
        });

    std::uint64_t hash = kFnvOffset;
    std::size_t next = 0;
    for (std::int64_t i = 0;; ++i) {
        while (next < count && std::min(boundaries[next], length_) == i)
            out[next++] = hash;
        if (i == len)
            return;
        const std::uint64_t digest = perToken[static_cast<std::size_t>(i)];
        for (int shift = 0; shift < 64; shift += 8) {
            hash ^= (digest >> shift) & 0xffu;
            hash *= kFnvPrime;
        }
    }
}

double
KvCache::bf16Bytes() const
{
    return 2.0 * 2.0 * static_cast<double>(batch_) *
           static_cast<double>(length_) *
           static_cast<double>(config_.kvDim()) *
           static_cast<double>(config_.numLayers);
}

} // namespace runtime
} // namespace lia
