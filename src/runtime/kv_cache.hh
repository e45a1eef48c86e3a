/**
 * @file
 * Per-layer key/value cache.
 *
 * Stores K and V for every decoder layer, appended once per prefill or
 * decode step. The cache is the GPU-capacity pressure point that
 * motivates the paper's host-side offloading: its byte count feeds the
 * footprint checks and the transfer accounting.
 *
 * Token ranges copy out as BF16-width KvSpans and preload back
 * bit-identically. The span is the one out-of-cache KV format: it is
 * the shared-prefix payload and the parked form of a swapped-out cache
 * (snapshotRange over the whole cache, then clear(); preload brings it
 * back). clear() alone is the evict-and-recompute exit. The serving
 * runtime backend drives these entry points from scheduler preemption
 * decisions.
 */

#ifndef LIA_RUNTIME_KV_CACHE_HH
#define LIA_RUNTIME_KV_CACHE_HH

#include <cstdint>
#include <vector>

#include "model/config.hh"
#include "runtime/tensor.hh"

namespace lia {
namespace base {
class ThreadPool;
} // namespace base

namespace runtime {

/**
 * Compact copy of a token range of a KvCache, held at BF16 width: the
 * prefix-cache node payload and the parked form of a swapped-out
 * cache. Every FP32 value is split into its high 16 bits (its BF16
 * truncation) and its low 16 bits; the low plane is stored only when
 * some value of the span has non-zero low bits, so any float, NaN
 * payloads included, round-trips bit-exactly. The executor rounds K/V
 * through BF16, so a served span holds the high plane alone: exactly
 * the BF16 bytes the admission ledger charges.
 *
 * Both planes are laid out [layer][K, V][batch row][token][kvDim].
 */
struct KvSpan
{
    std::int64_t length = 0;  //!< tokens held
    double bytes = 0;         //!< BF16 bytes of K and V (all layers)
    std::int64_t layers = 0;
    std::int64_t batch = 0;
    std::int64_t width = 0;   //!< floats per token row (kvDim)
    std::vector<std::uint16_t> high;  //!< high 16 bits of every value
    std::vector<std::uint16_t> low;   //!< low 16 bits; empty if all 0

    bool empty() const { return length == 0; }

    /** Key / value of (layer, batch row, token, column), widened. */
    float key(std::int64_t layer, std::int64_t row, std::int64_t token,
              std::int64_t column) const;
    float value(std::int64_t layer, std::int64_t row,
                std::int64_t token, std::int64_t column) const;

    /** Bytes the planes occupy: bytes, or twice it with a low plane. */
    double heldBytes() const;

    /**
     * Split the span: the first @p tokens move out as the returned
     * head, this span keeps the tail, and both re-count their bytes.
     * The prefix cache uses this to split a node's KV span at a radix
     * divergence point.
     */
    KvSpan splitHead(std::int64_t tokens);

    /**
     * Copy of the first @p tokens, leaving this span untouched. A
     * prefix-cache hit that matches only part of a terminal node
     * attaches a head copy of the node's span.
     */
    KvSpan headCopy(std::int64_t tokens) const;
};

/**
 * Read-only view of one batch row of one layer's K and V, in place in
 * a KvCache. Token i starts at `k + i * rowStride` (likewise for v)
 * and holds rowStride floats. The view stays valid until the cache is
 * next appended to, preloaded or cleared.
 */
struct KvLayerView
{
    const float *k = nullptr;
    const float *v = nullptr;
    std::int64_t length = 0;       //!< tokens readable
    std::int64_t rowStride = 0;    //!< floats per token (kvDim)
    /**
     * Query rows attention runs against this view: the tokens the row
     * appended this step, the last `queries` of `length`. view()
     * leaves it at 1, a decode row; a forward pass sets each row's
     * own count.
     */
    std::int64_t queries = 1;
};

/** Growing K/V storage for all layers of one batch. */
class KvCache
{
  public:
    /**
     * A cache of @p max_len tokens per batch row. Its storage is
     * allocated by the first append() or preload().
     */
    KvCache(const model::ModelConfig &config, std::int64_t batch,
            std::int64_t max_len);

    /**
     * Append @p k and @p v (each (B, T, kvDim)) for @p layer. All
     * layers must be appended the same number of tokens per step; the
     * context length advances when the last layer is appended.
     */
    void append(std::int64_t layer, const Tensor &k, const Tensor &v);

    /**
     * append() through row pointers: @p tokens tokens of every batch
     * row, read as (B, tokens, kvDim) floats from @p k and @p v. A
     * batched decode writes each sequence's K/V row straight out of
     * the shared projection output this way.
     */
    void append(std::int64_t layer, const float *k, const float *v,
                std::int64_t tokens);

    /** Context length currently stored. */
    std::int64_t length() const { return length_; }

    std::int64_t batch() const { return batch_; }

    /**
     * In-place view of batch row @p row of layer @p layer. Mid-step,
     * a layer already appended this step also shows this step's
     * tokens, so its attention sees the KV it has just written. A
     * cache holding no storage yields null pointers and length 0.
     */
    KvLayerView view(std::int64_t layer, std::int64_t row = 0) const;

    /** Copy of view(layer)'s keys: (B, length, kvDim). */
    Tensor keys(std::int64_t layer) const;

    /** Copy of view(layer)'s values: (B, length, kvDim). */
    Tensor values(std::int64_t layer) const;

    /** BF16 bytes currently held (K and V, all layers). */
    double bf16Bytes() const;

    // --- Eviction / restoration entry points -------------------------

    /**
     * Drop the stored KV and its storage, leaving this cache empty but
     * reusable: it holds nothing until its next write. Clearing
     * mid-step (layers partially appended) is a bug and panics.
     */
    void clear();

    /**
     * Copy of tokens [@p start, @p end) across all layers, narrowed
     * straight from the cache rows into a KvSpan whose bytes equal
     * bf16Bytes() over that range. The source cache is untouched.
     * Shared prefix-cache nodes and parked swapped-out caches are
     * built from these spans.
     */
    KvSpan snapshotRange(std::int64_t start, std::int64_t end) const;

    /**
     * Append a span at the current end of the cache, widened straight
     * into the cache rows, as if its tokens had been produced by
     * prefill — the shared-prefix attach and swap-in path. Fails
     * cleanly (returns false, cache untouched) when called mid-step
     * or when the span is empty or its geometry does not fit.
     */
    bool preload(const KvSpan &span);

    /**
     * Roll the context back to @p new_length tokens, discarding the
     * KV of every later position — the speculative-decoding reject
     * path. The surviving prefix is untouched (its fingerprint is
     * preserved); the discarded slots become ordinary append capacity
     * again. Truncating mid-step is a bug and panics.
     */
    void truncate(std::int64_t new_length);

    /**
     * Position-ordered FNV-1a digest over the bit patterns of the
     * first @p tokens of stored K and V (all layers); -1 digests the
     * whole cache. Two caches holding bit-identical KV for a prefix
     * fingerprint identically — the evict/recompute and swap/restore
     * continuity checks rest on this. Per-token digests run on
     * @p pool (null selects the process-wide shared pool), matching
     * the executor's construction-time pool injection; the result is
     * the same at any thread count.
     */
    std::uint64_t fingerprint(std::int64_t tokens = -1,
                              base::ThreadPool *pool = nullptr) const;

    /**
     * fingerprint(b) for every b of @p boundaries (non-decreasing,
     * each clamped to length()) from one pass: each token up to the
     * last boundary is digested once and the fold reads its running
     * hash at every boundary. A prefix-cache insert takes the digests
     * of all its block boundaries from one call.
     */
    std::vector<std::uint64_t>
    fingerprints(const std::vector<std::int64_t> &boundaries,
                 base::ThreadPool *pool = nullptr) const;

  private:
    /** fingerprints() over @p count boundaries into @p out. */
    void digestPrefixes(const std::int64_t *boundaries,
                        std::size_t count, std::uint64_t *out,
                        base::ThreadPool *pool) const;

    /** Allocate zeroed storage on first write (none until then). */
    void allocate();

    /** Compact (B, length, kvDim) copy of one side (K or V) of a
     *  layer. */
    Tensor copyLayer(std::int64_t layer,
                     const std::vector<Tensor> &side) const;

    model::ModelConfig config_;
    std::int64_t batch_;
    std::int64_t maxLen_;
    std::int64_t length_ = 0;
    std::int64_t pendingTokens_ = 0;  //!< tokens appended this step
    std::int64_t nextLayer_ = 0;      //!< append cursor
    /** Per layer (B, maxLen, kvDim); empty until the first write and
     *  again after clear(), so an idle or parked cache holds no KV. */
    std::vector<Tensor> keys_;
    std::vector<Tensor> values_;
};

} // namespace runtime
} // namespace lia

#endif // LIA_RUNTIME_KV_CACHE_HH
