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

} // namespace

bool
KvSnapshot::compact() const
{
    if (empty())
        return length == 0;
    const Tensor &front = keys.front();
    if (front.ndim() != 3 || values.size() != keys.size())
        return false;
    // Every layer's K and V share one shape, so the span copies can
    // run as flat row copies.
    const std::vector<std::int64_t> shape{front.dim(0), length,
                                          front.dim(2)};
    for (std::size_t l = 0; l < keys.size(); ++l) {
        if (keys[l].shape() != shape || values[l].shape() != shape)
            return false;
    }
    return true;
}

KvSnapshot
KvSnapshot::splitHead(std::int64_t tokens)
{
    LIA_ASSERT(compact(), "splitHead needs a compact snapshot");
    LIA_ASSERT(tokens > 0 && tokens < length,
               "splitHead tokens ", tokens, " out of (0, ", length, ")");
    const std::int64_t batch = keys.front().dim(0);
    const std::int64_t kv = keys.front().dim(2);
    const std::int64_t layers =
        static_cast<std::int64_t>(keys.size());

    KvSnapshot head;
    head.length = tokens;
    head.bytes = spanBf16Bytes(batch, tokens, kv, layers);
    head.keys.reserve(keys.size());
    head.values.reserve(values.size());

    const std::int64_t tail = length - tokens;
    std::vector<Tensor> tailKeys;
    std::vector<Tensor> tailValues;
    tailKeys.reserve(keys.size());
    tailValues.reserve(values.size());
    for (std::size_t l = 0; l < keys.size(); ++l) {
        Tensor hk({batch, tokens, kv});
        Tensor hv({batch, tokens, kv});
        Tensor tk({batch, tail, kv});
        Tensor tv({batch, tail, kv});
        const std::int64_t src = length * kv;
        copyBatchRows(hk.data(), tokens * kv, keys[l].data(), src, batch,
                      tokens * kv);
        copyBatchRows(hv.data(), tokens * kv, values[l].data(), src,
                      batch, tokens * kv);
        copyBatchRows(tk.data(), tail * kv, keys[l].data() + tokens * kv,
                      src, batch, tail * kv);
        copyBatchRows(tv.data(), tail * kv,
                      values[l].data() + tokens * kv, src, batch,
                      tail * kv);
        head.keys.push_back(std::move(hk));
        head.values.push_back(std::move(hv));
        tailKeys.push_back(std::move(tk));
        tailValues.push_back(std::move(tv));
    }

    keys = std::move(tailKeys);
    values = std::move(tailValues);
    length = tail;
    bytes = spanBf16Bytes(batch, tail, kv, layers);
    return head;
}

KvSnapshot
KvSnapshot::headCopy(std::int64_t tokens) const
{
    LIA_ASSERT(compact(), "headCopy needs a compact snapshot");
    LIA_ASSERT(tokens > 0 && tokens <= length,
               "headCopy tokens ", tokens, " out of (0, ", length, "]");
    const std::int64_t batch = keys.front().dim(0);
    const std::int64_t kv = keys.front().dim(2);
    const std::int64_t layers =
        static_cast<std::int64_t>(keys.size());

    KvSnapshot head;
    head.length = tokens;
    head.bytes = spanBf16Bytes(batch, tokens, kv, layers);
    head.keys.reserve(keys.size());
    head.values.reserve(values.size());
    for (std::size_t l = 0; l < keys.size(); ++l) {
        Tensor hk({batch, tokens, kv});
        Tensor hv({batch, tokens, kv});
        copyBatchRows(hk.data(), tokens * kv, keys[l].data(), length * kv,
                      batch, tokens * kv);
        copyBatchRows(hv.data(), tokens * kv, values[l].data(),
                      length * kv, batch, tokens * kv);
        head.keys.push_back(std::move(hk));
        head.values.push_back(std::move(hv));
    }
    return head;
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

KvSnapshot
KvCache::evict()
{
    LIA_ASSERT(nextLayer_ == 0 && pendingTokens_ == 0,
               "evicting a cache mid-step (", nextLayer_,
               " layers appended)");
    allocate();  // the snapshot always carries full-geometry tensors
    KvSnapshot snapshot;
    snapshot.length = length_;
    snapshot.bytes = bf16Bytes();
    snapshot.keys = std::move(keys_);
    snapshot.values = std::move(values_);

    // The next write allocates fresh storage; until then the evicted
    // cache holds none.
    keys_.clear();
    values_.clear();
    length_ = 0;
    return snapshot;
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

KvSnapshot
KvCache::snapshotRange(std::int64_t start, std::int64_t end) const
{
    LIA_ASSERT(nextLayer_ == 0 && pendingTokens_ == 0,
               "snapshotting a cache mid-step");
    LIA_ASSERT(start >= 0 && start < end && end <= length_,
               "bad snapshot range [", start, ", ", end, ") of ",
               length_);
    const std::int64_t kv = config_.kvDim();
    const std::int64_t t = end - start;
    KvSnapshot span;
    span.length = t;
    span.bytes = spanBf16Bytes(batch_, t, kv, config_.numLayers);
    span.keys.reserve(keys_.size());
    span.values.reserve(values_.size());
    for (std::size_t l = 0; l < keys_.size(); ++l) {
        Tensor k({batch_, t, kv});
        Tensor v({batch_, t, kv});
        copyBatchRows(k.data(), t * kv, keys_[l].data() + start * kv,
                      maxLen_ * kv, batch_, t * kv);
        copyBatchRows(v.data(), t * kv, values_[l].data() + start * kv,
                      maxLen_ * kv, batch_, t * kv);
        span.keys.push_back(std::move(k));
        span.values.push_back(std::move(v));
    }
    return span;
}

bool
KvCache::preload(const KvSnapshot &span)
{
    if (nextLayer_ > 0 || pendingTokens_ > 0)
        return false;  // never splice into a half-appended step
    if (span.empty() || !span.compact() ||
        span.keys.size() != static_cast<std::size_t>(config_.numLayers))
        return false;
    if (length_ + span.length > maxLen_)
        return false;
    const Tensor &front = span.keys.front();
    if (front.dim(0) != batch_ || front.dim(2) != config_.kvDim())
        return false;

    allocate();
    const std::int64_t kv = config_.kvDim();
    const std::int64_t row = span.length * kv;
    for (std::size_t l = 0; l < keys_.size(); ++l) {
        copyBatchRows(keys_[l].data() + length_ * kv, maxLen_ * kv,
                      span.keys[l].data(), row, batch_, row);
        copyBatchRows(values_[l].data() + length_ * kv, maxLen_ * kv,
                      span.values[l].data(), row, batch_, row);
    }
    length_ += span.length;
    return true;
}

bool
KvCache::restore(KvSnapshot &snapshot)
{
    if (length_ > 0 || nextLayer_ > 0 || pendingTokens_ > 0)
        return false;  // occupied caches refuse a restore
    if (snapshot.empty() ||
        snapshot.keys.size() !=
            static_cast<std::size_t>(config_.numLayers) ||
        snapshot.values.size() != snapshot.keys.size())
        return false;
    if (snapshot.length > maxLen_)
        return false;
    for (const Tensor &k : snapshot.keys) {
        if (k.ndim() != 3 || k.dim(0) != batch_ ||
            k.dim(1) != maxLen_ || k.dim(2) != config_.kvDim())
            return false;
    }

    keys_ = std::move(snapshot.keys);
    values_ = std::move(snapshot.values);
    length_ = snapshot.length;
    snapshot = KvSnapshot{};
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
    const std::int64_t len =
        tokens < 0 ? length_ : std::min(tokens, length_);
    const std::int64_t kv = config_.kvDim();
    if (pool == nullptr)
        pool = &base::ThreadPool::shared();

    // Per-token FNV-1a digests computed in parallel, then folded in
    // position order: the combination is a pure function of the
    // stored bits, so two caches holding bit-identical KV for the
    // prefix fingerprint identically at any thread count.
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
    for (std::int64_t i = 0; i < len; ++i) {
        std::uint64_t digest = perToken[static_cast<std::size_t>(i)];
        for (int shift = 0; shift < 64; shift += 8) {
            hash ^= (digest >> shift) & 0xffu;
            hash *= kFnvPrime;
        }
    }
    return hash;
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
