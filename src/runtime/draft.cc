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
DraftModel::propose(KvCache &cache,
                    const std::vector<std::int64_t> &stream,
                    std::int64_t k)
{
    LIA_ASSERT(k >= 1, "propose wants at least one draft token");
    const auto n = static_cast<std::int64_t>(stream.size());
    LIA_ASSERT(cache.length() < n,
               "draft cache (", cache.length(),
               " tokens) must trail the stream (", n, ")");

    // Catch up: feed every stream token the cache has not seen. After
    // an accepted verify this is one token (the correction/bonus); on
    // a fresh or rebuilt cache it is the whole stream. The chunk's
    // final sample is the first draft.
    ForwardFeed feed{&cache,
                     {stream.begin() + cache.length(), stream.end()},
                     model::Stage::Prefill};
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

} // namespace runtime
} // namespace lia
