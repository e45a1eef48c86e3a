/**
 * @file
 * Speculative draft proposer (DESIGN.md §11).
 *
 * A DraftModel wraps a second, scaled-down CooperativeExecutor — the
 * AMX-modeled CPU companion of the served target model
 * (model::draftModelConfig) — and proposes k greedy tokens per
 * speculation step against a caller-owned draft KvCache. The draft
 * cache trails the target's emitted stream: propose() first feeds the
 * stream suffix the cache has not seen (one token after an accepted
 * verify, the whole stream on the first step or after a preemption
 * discarded the cache), then rolls k tokens forward. The target
 * scores the proposals as one sampleEvery feed of its forward pass,
 * greedyAccepted() applies the accept rule, and the caller truncates
 * both caches so rejected drafts never contaminate later proposals.
 *
 * The draft model shares the target's vocabulary and context window
 * by construction, so its proposals feed the target directly.
 */

#ifndef LIA_RUNTIME_DRAFT_HH
#define LIA_RUNTIME_DRAFT_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hw/system.hh"
#include "runtime/executor.hh"
#include "runtime/kv_cache.hh"
#include "runtime/weights.hh"

namespace lia {
namespace runtime {

/** CPU-side draft proposer for speculative decoding. */
class DraftModel
{
  public:
    /**
     * @param system  hardware the draft work is charged to (the draft
     *                runs CPU-side; the executor's ledger records it)
     * @param weights draft-geometry weights (model::draftModelConfig
     *                of the served target)
     * @param config  executor configuration — inject the same pool as
     *                the target executor so draft kernels reuse the
     *                persistent workers
     */
    DraftModel(const hw::SystemConfig &system,
               TransformerWeights weights, ExecutorConfig config);

    /** The draft model's geometry (for sizing draft caches). */
    const model::ModelConfig &config() const { return config_; }

    /** A draft-geometry cache for one sequence of @p max_len. */
    std::unique_ptr<KvCache> makeCache(std::int64_t max_len) const;

    /**
     * Propose @p k greedy draft tokens continuing the target's token
     * stream (prompt plus emitted outputs). @p cache holds the draft
     * KV of the stream's first cache.length() tokens and @p suffix is
     * the rest of the stream, at least one token: it is fed first,
     * then the proposal rolls forward. On return the cache holds
     * suffix.size() + k - 1 more tokens: the full stream plus the
     * first k-1 drafts.
     *
     * After the target verifies and accepts `a` drafts, roll the
     * cache back with truncateAfterVerify() before the next propose.
     */
    std::vector<std::int64_t>
    propose(KvCache &cache, std::vector<std::int64_t> suffix,
            std::int64_t k);

    /**
     * Roll @p cache back to the last position consistent with the
     * target's accepted stream: @p stream_len tokens were in the
     * stream at propose() time, the verify pass accepted @p accepted
     * of @p k drafts. Keeps the accepted drafts' KV (they are now
     * real stream tokens) and discards the rejected suffix.
     */
    static void truncateAfterVerify(KvCache &cache,
                                    std::int64_t stream_len,
                                    std::int64_t accepted,
                                    std::int64_t k);

  private:
    model::ModelConfig config_;
    CooperativeExecutor executor_;
};

/**
 * The greedy accept rule of one verify (DESIGN.md §11). @p samples
 * are the target's samples at the k+1 positions it fed,
 * [last, d1..dk]; @p drafts are d1..dk. Returns the longest prefix
 * where draft i equals the sample at position i - 1. The step emits
 * samples[0..accepted]: the accepted drafts plus the target's own
 * next token (the correction, or the bonus when every draft held).
 */
std::int64_t greedyAccepted(std::span<const std::int64_t> samples,
                            std::span<const std::int64_t> drafts);

} // namespace runtime
} // namespace lia

#endif // LIA_RUNTIME_DRAFT_HH
