#include "serve/prefix_cache.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "base/logging.hh"

namespace lia {
namespace serve {

std::vector<std::int64_t>
synthesizePrompt(std::uint64_t seed, const Request &request,
                 std::int64_t vocab)
{
    LIA_ASSERT(vocab > 0, "bad vocab size");
    const auto draw = [vocab](std::uint64_t &state) {
        state += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        return static_cast<std::int64_t>(
            z % static_cast<std::uint64_t>(vocab));
    };

    std::vector<std::int64_t> tokens;
    tokens.reserve(static_cast<std::size_t>(request.lIn));
    if (request.poolId >= 0 && request.sharedLen > 0) {
        // The shared prefix comes from a pool-salted stream, so every
        // member of one pool opens with bit-identical tokens no matter
        // which request synthesizes them.
        std::uint64_t pool_state =
            seed * 0x94d049bb133111ebULL +
            static_cast<std::uint64_t>(request.poolId + 1) *
                0xda942042e4dd58b5ULL;
        const std::int64_t shared =
            std::min(request.sharedLen, request.lIn);
        for (std::int64_t i = 0; i < shared; ++i)
            tokens.push_back(draw(pool_state));
    }
    std::uint64_t state =
        seed * 0xbf58476d1ce4e5b9ULL + request.id + 1;
    while (static_cast<std::int64_t>(tokens.size()) < request.lIn)
        tokens.push_back(draw(state));
    return tokens;
}

PrefixCache::PrefixCache(const model::ModelConfig &model,
                         const Config &config,
                         AdmissionController &admission,
                         Pricing pricing)
    : model_(model), seed_(config.seed),
      blockTokens_(config.prefix.blockTokens), admission_(admission),
      pricing_(std::move(pricing))
{
    LIA_ASSERT(blockTokens_ >= 1, "bad prefix block size");
    LIA_ASSERT(static_cast<bool>(pricing_.recomputeSeconds),
               "prefix cache needs a recompute price");
}

std::vector<std::int64_t>
PrefixCache::promptOf(const Request &request) const
{
    return synthesizePrompt(seed_, request, model_.vocabSize);
}

PrefixCache::Node &
PrefixCache::node(std::uint64_t id)
{
    auto it = nodes_.find(id);
    LIA_ASSERT(it != nodes_.end(), "unknown prefix node ", id);
    return it->second;
}

const PrefixCache::Node &
PrefixCache::node(std::uint64_t id) const
{
    auto it = nodes_.find(id);
    LIA_ASSERT(it != nodes_.end(), "unknown prefix node ", id);
    return it->second;
}

double
PrefixCache::nodeBytes(const Node &n) const
{
    return model_.kvBytesPerToken() *
           static_cast<double>(n.tokens(blockTokens_));
}

std::map<std::vector<std::int64_t>, std::uint64_t> &
PrefixCache::siblingsOf(const Node &n)
{
    return n.parent == 0 ? rootChildren_ : node(n.parent).children;
}

namespace {

/** Copy of @p prompt's @p index-th whole block. */
std::vector<std::int64_t>
promptBlock(const std::vector<std::int64_t> &prompt, std::int64_t index,
            std::int64_t block_tokens)
{
    const auto first = prompt.begin() + index * block_tokens;
    return {first, first + block_tokens};
}

} // namespace

PrefixMatch
PrefixCache::lookup(const std::vector<std::int64_t> &prompt,
                    std::int64_t cap) const
{
    PrefixMatch match;
    const std::int64_t limit =
        std::min<std::int64_t>(
            cap, static_cast<std::int64_t>(prompt.size())) /
        blockTokens_;
    if (limit <= 0)
        return match;

    const auto *children = &rootChildren_;
    std::int64_t offset = 0;  // blocks matched so far
    while (offset < limit) {
        const auto it = children->find(
            promptBlock(prompt, offset, blockTokens_));
        if (it == children->end())
            break;
        const Node &child = node(it->second);
        std::int64_t m = 0;  // blocks matched inside this node
        while (m < static_cast<std::int64_t>(child.blocks.size()) &&
               offset + m < limit &&
               child.blocks[static_cast<std::size_t>(m)] ==
                   promptBlock(prompt, offset + m, blockTokens_))
            ++m;
        LIA_ASSERT(m >= 1, "child key matched but its span did not");
        match.path.push_back(child.id);
        match.terminalTokens = m * blockTokens_;
        if (child.demoted)
            match.cxlBytes += model_.kvBytesPerToken() *
                              static_cast<double>(m * blockTokens_);
        offset += m;
        if (m < static_cast<std::int64_t>(child.blocks.size()))
            break;  // partial use of this node ends the walk
        children = &child.children;
    }
    match.tokens = offset * blockTokens_;
    return match;
}

PrefixHit
PrefixCache::commitHit(const PrefixMatch &match, std::size_t index)
{
    LIA_ASSERT(match.hit() && !match.path.empty(),
               "committing an empty prefix match");
    for (std::uint64_t id : match.path)
        node(id).lastUse = ++clock_;
    Node &terminal = node(match.path.back());
    ++terminal.refs;

    PrefixHit hit;
    hit.index = index;
    hit.node = terminal.id;
    hit.tokens = match.tokens;
    hit.terminalTokens = match.terminalTokens;
    hit.cxlBytes = match.cxlBytes;
    hit.path = match.path;
    return hit;
}

void
PrefixCache::unpin(std::uint64_t id)
{
    Node &n = node(id);
    LIA_ASSERT(n.refs > 0, "unpin of an unpinned prefix node ", id);
    --n.refs;
}

std::uint64_t
PrefixCache::split(Node &child, std::int64_t keep,
                   std::vector<PrefixOp> &ops)
{
    LIA_ASSERT(keep >= 1 &&
                   keep < static_cast<std::int64_t>(child.blocks.size()),
               "bad split point ", keep, " of ", child.blocks.size(),
               " blocks");
    const std::uint64_t head_id = nextId_++;
    Node head;
    head.id = head_id;
    head.parent = child.parent;
    head.blocks.assign(child.blocks.begin(),
                       child.blocks.begin() + keep);
    head.startToken = child.startToken;
    head.lastUse = child.lastUse;
    head.demoted = child.demoted;

    // Re-key the parent edge onto the head (same first block), then
    // hang the tail — the original node, refs and all — under it.
    auto &siblings = siblingsOf(child);
    const auto edge = siblings.find(child.blocks.front());
    LIA_ASSERT(edge != siblings.end() && edge->second == child.id,
               "parent edge lost for node ", child.id);
    siblings.erase(edge);
    siblings.emplace(head.blocks.front(), head_id);

    child.blocks.erase(child.blocks.begin(),
                       child.blocks.begin() + keep);
    child.parent = head_id;
    child.startToken += keep * blockTokens_;
    head.children.emplace(child.blocks.front(), child.id);

    PrefixOp op;
    op.kind = PrefixOp::Kind::Split;
    op.node = head_id;
    op.tail = child.id;
    op.tokens = keep * blockTokens_;
    ops.push_back(op);
    nodes_.emplace(head_id, std::move(head));
    return head_id;
}

std::vector<PrefixOp>
PrefixCache::insert(const std::vector<std::int64_t> &prompt,
                    std::uint64_t request_id)
{
    std::vector<PrefixOp> ops;
    const std::int64_t total =
        static_cast<std::int64_t>(prompt.size()) / blockTokens_;
    if (total <= 0)
        return ops;

    std::uint64_t parent_id = 0;
    auto *children = &rootChildren_;
    // Nodes the walk stands on: reclaim for headroom must not evict
    // the very ancestors the new node will hang beneath.
    std::set<std::uint64_t> path;
    std::int64_t offset = 0;
    while (offset < total) {
        const auto it = children->find(
            promptBlock(prompt, offset, blockTokens_));
        if (it == children->end()) {
            // Nothing shares this continuation: cache the remainder as
            // one new node, but only out of DDR headroom — reclaim
            // colder cache first, never live KV, and give up (leaving
            // the prefix uncached) when headroom still cannot cover it.
            const std::int64_t remaining = total - offset;
            const double bytes =
                model_.kvBytesPerToken() *
                static_cast<double>(remaining * blockTokens_);
            if (bytes > admission_.ddrHeadroom()) {
                auto reclaimed =
                    makeRoom(bytes - admission_.ddrHeadroom(), &path);
                ops.insert(ops.end(), reclaimed.begin(),
                           reclaimed.end());
            }
            if (bytes > admission_.ddrHeadroom())
                return ops;

            const std::uint64_t id = nextId_++;
            Node fresh;
            fresh.id = id;
            fresh.parent = parent_id;
            fresh.blocks.reserve(static_cast<std::size_t>(remaining));
            for (std::int64_t b = 0; b < remaining; ++b)
                fresh.blocks.push_back(promptBlock(
                    prompt, offset + b, blockTokens_));
            fresh.startToken = offset * blockTokens_;
            fresh.lastUse = ++clock_;
            children->emplace(fresh.blocks.front(), id);
            nodes_.emplace(id, std::move(fresh));
            admission_.cacheReserve(bytes);
            ddrBytes_ += bytes;

            PrefixOp op;
            op.kind = PrefixOp::Kind::Insert;
            op.node = id;
            op.source = request_id;
            op.startToken = offset * blockTokens_;
            op.tokens = remaining * blockTokens_;
            ops.push_back(op);
            return ops;
        }

        Node &child = node(it->second);
        std::int64_t m = 0;
        while (m < static_cast<std::int64_t>(child.blocks.size()) &&
               offset + m < total &&
               child.blocks[static_cast<std::size_t>(m)] ==
                   promptBlock(prompt, offset + m, blockTokens_))
            ++m;
        LIA_ASSERT(m >= 1, "child key matched but its span did not");
        if (m == static_cast<std::int64_t>(child.blocks.size())) {
            child.lastUse = ++clock_;
            offset += m;
            parent_id = child.id;
            path.insert(child.id);
            children = &child.children;
            continue;
        }
        // The prompt leaves this node mid-span: split at the boundary.
        // If the prompt is exhausted the split head IS the insertion;
        // otherwise the next round finds no edge for the diverging
        // block and caches the remainder under the head.
        const std::uint64_t head_id = split(child, m, ops);
        node(head_id).lastUse = ++clock_;
        offset += m;
        parent_id = head_id;
        path.insert(head_id);
        children = &node(head_id).children;
    }
    return ops;
}

std::vector<PrefixOp>
PrefixCache::makeRoom(double bytes, const std::set<std::uint64_t> *keep)
{
    std::vector<PrefixOp> ops;
    std::set<std::uint64_t> unmovable;
    double freed = 0;
    while (freed < bytes) {
        // LRU victim: the oldest unpinned resident node. Pinned nodes
        // are protected by their refcount. Interior nodes stay
        // matchable for their subtree, so they can only *demote* —
        // eviction would orphan the children — and ones that cannot
        // demote (pricing or a full pool) are skipped, not dropped.
        Node *victim = nullptr;
        for (auto &entry : nodes_) {
            Node &n = entry.second;
            if (n.demoted || n.refs > 0 || unmovable.count(n.id) ||
                (keep != nullptr && keep->count(n.id)))
                continue;
            if (victim == nullptr ||
                n.lastUse < victim->lastUse ||
                (n.lastUse == victim->lastUse && n.id < victim->id))
                victim = &n;
        }
        if (victim == nullptr)
            break;
        const double victim_bytes = nodeBytes(*victim);
        const std::int64_t prefix_end =
            victim->startToken + victim->tokens(blockTokens_);

        // §5 pricing: demote to CXL when one read-back of the span
        // costs less than re-prefilling its whole prefix (that is
        // what a future hit saves); otherwise the node is not worth
        // pool space and is dropped.
        bool demote =
            static_cast<bool>(pricing_.transferSeconds) &&
            pricing_.transferSeconds(victim_bytes) <=
                pricing_.recomputeSeconds(prefix_end);
        if (demote) {
            // Make pool room by dropping the coldest demoted leaves.
            while (!admission_.cacheCxlFits(victim_bytes)) {
                Node *cold = nullptr;
                for (auto &entry : nodes_) {
                    Node &n = entry.second;
                    if (!n.demoted || n.refs > 0 ||
                        !n.children.empty() ||
                        (keep != nullptr && keep->count(n.id)))
                        continue;
                    if (cold == nullptr ||
                        n.lastUse < cold->lastUse ||
                        (n.lastUse == cold->lastUse &&
                         n.id < cold->id))
                        cold = &n;
                }
                if (cold == nullptr)
                    break;
                const double cold_bytes = nodeBytes(*cold);
                admission_.cacheDropCxl(cold_bytes);
                cxlBytes_ -= cold_bytes;
                PrefixOp drop;
                drop.kind = PrefixOp::Kind::DropCxl;
                drop.node = cold->id;
                drop.tokens = cold->tokens(blockTokens_);
                ops.push_back(drop);
                siblingsOf(*cold).erase(cold->blocks.front());
                nodes_.erase(cold->id);
            }
            demote = admission_.cacheCxlFits(victim_bytes);
        }
        if (!demote && !victim->children.empty()) {
            // An interior node the pricing (or pool) refuses to
            // demote stays resident: evicting it would strand its
            // subtree. Look for the next-oldest victim instead.
            unmovable.insert(victim->id);
            continue;
        }

        PrefixOp op;
        op.node = victim->id;
        op.tokens = victim->tokens(blockTokens_);
        if (demote) {
            victim->demoted = true;
            admission_.cacheDemote(victim_bytes);
            ddrBytes_ -= victim_bytes;
            cxlBytes_ += victim_bytes;
            op.kind = PrefixOp::Kind::Demote;
        } else {
            admission_.cacheRelease(victim_bytes);
            ddrBytes_ -= victim_bytes;
            op.kind = PrefixOp::Kind::Evict;
            siblingsOf(*victim).erase(victim->blocks.front());
            nodes_.erase(victim->id);
        }
        ops.push_back(op);
        freed += victim_bytes;
    }
    return ops;
}

void
PrefixCache::checkNode(const Node &n) const
{
    LIA_ASSERT(n.refs >= 0, "negative refcount on node ", n.id);
    LIA_ASSERT(!n.blocks.empty(), "empty prefix node ", n.id);
    for (const auto &block : n.blocks)
        LIA_ASSERT(static_cast<std::int64_t>(block.size()) == blockTokens_,
                   "ragged block in node ", n.id);
    if (n.parent == 0) {
        const auto it = rootChildren_.find(n.blocks.front());
        LIA_ASSERT(it != rootChildren_.end() && it->second == n.id,
                   "root edge lost for node ", n.id);
        LIA_ASSERT(n.startToken == 0, "root child node ", n.id,
                   " starts at token ", n.startToken);
    } else {
        const Node &parent = node(n.parent);
        const auto it = parent.children.find(n.blocks.front());
        LIA_ASSERT(it != parent.children.end() && it->second == n.id,
                   "parent edge lost for node ", n.id);
        LIA_ASSERT(n.startToken ==
                       parent.startToken + parent.tokens(blockTokens_),
                   "node ", n.id, " start drifted");
    }
}

void
PrefixCache::checkLedgers(double resident, double demoted) const
{
    LIA_ASSERT(std::abs(resident - ddrBytes_) < 0.5,
               "resident cache ledger drifted: nodes hold ", resident,
               " bytes, ledger says ", ddrBytes_);
    LIA_ASSERT(std::abs(demoted - cxlBytes_) < 0.5,
               "demoted cache ledger drifted");
    LIA_ASSERT(std::abs(admission_.cacheDdrBytes() - ddrBytes_) < 0.5,
               "admission cache account drifted from the tree");
    LIA_ASSERT(std::abs(admission_.cacheCxlBytes() - cxlBytes_) < 0.5,
               "admission CXL cache account drifted from the tree");
}

void
PrefixCache::checkInvariants() const
{
    double resident = 0, demoted = 0;
    for (const auto &entry : nodes_) {
        const Node &n = entry.second;
        checkNode(n);
        (n.demoted ? demoted : resident) += nodeBytes(n);
    }
    checkLedgers(resident, demoted);
}

void
PrefixCache::uncount(std::uint64_t id)
{
    const auto it = counted_.find(id);
    if (it == counted_.end())
        return;  // created and reclaimed within one plan
    (it->second.demoted ? countedCxl_ : countedDdr_) -= it->second.bytes;
    counted_.erase(it);
}

std::vector<std::uint64_t>
PrefixCache::checkPlan(const std::vector<PrefixOp> &ops,
                       const std::vector<PrefixHit> &hits)
{
    // Every field checkInvariants() reads changes only through an
    // emitted op or a committed hit (lastUse aside, which it does not
    // check; unpin asserts refs > 0 before decrementing), so the nodes
    // these name are the only ones whose checks can have changed.
    std::vector<std::uint64_t> touched, reclaimed;
    for (const PrefixOp &op : ops) {
        switch (op.kind) {
          case PrefixOp::Kind::Split:
            touched.push_back(op.tail);
            touched.push_back(op.node);
            break;
          case PrefixOp::Kind::Insert:
          case PrefixOp::Kind::Demote:
            touched.push_back(op.node);
            break;
          case PrefixOp::Kind::Evict:
          case PrefixOp::Kind::DropCxl:
            reclaimed.push_back(op.node);
            break;
        }
    }
    for (const PrefixHit &hit : hits)
        touched.insert(touched.end(), hit.path.begin(), hit.path.end());
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    std::sort(reclaimed.begin(), reclaimed.end());

    for (std::uint64_t id : reclaimed) {
        LIA_ASSERT(nodes_.count(id) == 0, "reclaimed prefix node ", id,
                   " is still in the tree");
        uncount(id);
    }
    std::vector<std::uint64_t> checked;
    for (std::uint64_t id : touched) {
        const auto it = nodes_.find(id);
        if (it == nodes_.end()) {
            // A later op of the same plan reclaimed it.
            LIA_ASSERT(std::binary_search(reclaimed.begin(),
                                          reclaimed.end(), id),
                       "prefix node ", id, " vanished without a reclaim op");
            continue;
        }
        const Node &n = it->second;
        checkNode(n);
        checked.push_back(id);
        // A split re-homes the tail under the head, so the edges one
        // level down are part of what the plan changed.
        for (const auto &child : n.children) {
            checkNode(node(child.second));
            checked.push_back(child.second);
        }

        uncount(id);
        const Counted now{nodeBytes(n), n.demoted};
        (now.demoted ? countedCxl_ : countedDdr_) += now.bytes;
        counted_.emplace(id, now);
    }
    checkLedgers(countedDdr_, countedCxl_);
    std::sort(checked.begin(), checked.end());
    checked.erase(std::unique(checked.begin(), checked.end()),
                  checked.end());
    return checked;
}

std::vector<PrefixCache::NodeView>
PrefixCache::nodes() const
{
    std::vector<NodeView> views;
    views.reserve(nodes_.size());
    for (const auto &entry : nodes_) {
        const Node &n = entry.second;
        NodeView view;
        view.id = n.id;
        view.parent = n.parent;
        view.tokens = n.tokens(blockTokens_);
        view.startToken = n.startToken;
        view.refs = n.refs;
        view.lastUse = n.lastUse;
        view.demoted = n.demoted;
        view.children = n.children.size();
        views.push_back(view);
    }
    return views;
}

} // namespace serve
} // namespace lia
