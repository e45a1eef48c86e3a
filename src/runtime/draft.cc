#include "runtime/draft.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"

namespace lia {
namespace runtime {

DraftModel::DraftModel(const hw::SystemConfig &system,
                       TransformerWeights weights,
                       ExecutorConfig config)
    : config_(weights.config),
      executor_(system, std::move(weights), std::move(config))
{
}

std::unique_ptr<KvCache>
DraftModel::makeCache(std::int64_t max_len) const
{
    return std::make_unique<KvCache>(config_, 1, max_len);
}

std::vector<std::int64_t>
DraftModel::propose(KvCache &cache, std::vector<std::int64_t> suffix,
                    std::int64_t k)
{
    LIA_ASSERT(k >= 1, "propose wants at least one draft token");
    LIA_ASSERT(!suffix.empty(), "draft cache (", cache.length(),
               " tokens) must trail the stream");
    const std::int64_t n =
        cache.length() + static_cast<std::int64_t>(suffix.size());

    // Catch up: feed every stream token the cache has not seen. After
    // an accepted verify this is one token (the correction/bonus); on
    // a fresh or rebuilt cache it is the whole stream. The chunk's
    // final sample is the first draft.
    ForwardFeed feed{&cache, std::move(suffix), model::Stage::Prefill};
    std::vector<std::int64_t> drafts;
    drafts.reserve(static_cast<std::size_t>(k));
    for (;;) {
        drafts.push_back(executor_.forward({&feed, 1}).front());
        if (static_cast<std::int64_t>(drafts.size()) == k)
            break;
        feed.tokens = {drafts.back()};
        feed.stage = model::Stage::Decode;
    }
    LIA_ASSERT(cache.length() == n + k - 1,
               "draft cache length drifted");
    return drafts;
}

void
DraftModel::truncateAfterVerify(KvCache &cache,
                                std::int64_t stream_len,
                                std::int64_t accepted,
                                std::int64_t k)
{
    // propose() left the cache at stream_len + k - 1 tokens: the
    // stream prefix plus drafts d1..d(k-1). The first `accepted`
    // drafts are now real stream tokens; everything after them is
    // speculation the target rejected.
    const std::int64_t keep =
        stream_len + std::min(accepted, k - 1);
    LIA_ASSERT(cache.length() == stream_len + k - 1,
               "verify rollback against an unexpected draft cache");
    cache.truncate(keep);
}

std::int64_t
greedyAccepted(std::span<const std::int64_t> samples,
               std::span<const std::int64_t> drafts)
{
    LIA_ASSERT(!drafts.empty() && samples.size() == drafts.size() + 1,
               "verify sampled ", samples.size(), " positions for ",
               drafts.size(), " drafts");
    // Position i's sample depends only on inputs up to i (causal
    // masking), which equal the true greedy stream while the draft
    // prefix holds.
    std::size_t accepted = 0;
    while (accepted < drafts.size() &&
           samples[accepted] == drafts[accepted])
        ++accepted;
    return static_cast<std::int64_t>(accepted);
}

} // namespace runtime
} // namespace lia
