/**
 * @file
 * Property suite for the shared-KV prefix radix tree.
 *
 * Randomized insert/match/split/evict sequences run against a naive
 * reference model — a flat map from cached block-aligned prefixes to
 * residency — maintained purely from the PrefixOps the tree emits.
 * After every step:
 *
 *  - lookup() returns exactly the naive longest cached block-prefix
 *    (and the same demoted-bytes charge);
 *  - refcounts are never negative, spans are whole blocks, and the
 *    tree's byte ledgers equal the per-node sums and the admission
 *    controller's cache accounts (checkInvariants);
 *  - the per-plan check (checkPlan) on the step's ops and hits passes
 *    wherever the full sweep does, and covers every node whose
 *    checked fields — or whose parent's span — the step changed;
 *  - eviction never frees a pinned node or an interior node, and
 *    bytes(tree) == sum of live node spans;
 *  - insertion spends only DDR headroom left by live KV, and never
 *    reclaims a node its own walk descended through.
 *
 * Scenario count follows LIA_PREFIX_SCENARIOS (ctest -L prefix).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "serve/prefix_cache.hh"
#include "support/differential.hh"

namespace {

using namespace lia;

constexpr std::int64_t kBlock = 8;

serve::Config
cacheConfig(double budget_cap)
{
    serve::Config cfg;
    cfg.prefix.enabled = true;
    cfg.prefix.blockTokens = kBlock;
    cfg.kvBudgetCapBytes = budget_cap;
    cfg.maxContext = 256;
    return cfg;
}

/** Test fixture owning one admission account + tree pair. */
struct Harness
{
    serve::Config config;
    serve::AdmissionController admission;
    serve::PrefixCache cache;

    explicit Harness(double budget_cap, double transfer_scale = 1e-9)
        : config(cacheConfig(budget_cap)),
          admission(test::tinySystem(true), test::tinyServedModel(),
                    config),
          cache(test::tinyServedModel(), config, admission,
                pricing(transfer_scale))
    {
    }

    /** Linear stand-in prices: recompute ~ tokens, transfer ~ bytes
     *  (scaled so the demote-vs-drop rule can be steered by tests). */
    static serve::PrefixCache::Pricing pricing(double transfer_scale)
    {
        serve::PrefixCache::Pricing p;
        p.recomputeSeconds = [](std::int64_t tokens) {
            return 1e-6 * static_cast<double>(tokens);
        };
        p.transferSeconds = [transfer_scale](double bytes) {
            return transfer_scale * bytes;
        };
        return p;
    }
};

/**
 * Naive reference: every cached block-aligned prefix, flat. Keyed by
 * the full token prefix; the value tracks whether the covering node is
 * demoted. Maintained only from emitted ops plus the inserted prompts,
 * never by peeking at the tree.
 */
struct Reference
{
    /** One entry per node: the node's covered prompt prefix (tokens
     *  from position 0 through its span end) and its span length. */
    struct NodeRef
    {
        std::vector<std::int64_t> prefix;  //!< [0, startToken + tokens)
        std::int64_t startToken = 0;
        std::int64_t tokens = 0;
        bool demoted = false;
    };

    std::map<std::uint64_t, NodeRef> nodes;

    void apply(const std::vector<serve::PrefixOp> &ops,
               const std::vector<std::int64_t> &prompt)
    {
        for (const auto &op : ops) {
            switch (op.kind) {
              case serve::PrefixOp::Kind::Insert: {
                NodeRef ref;
                ref.startToken = op.startToken;
                ref.tokens = op.tokens;
                ref.prefix.assign(prompt.begin(),
                                  prompt.begin() + op.startToken +
                                      op.tokens);
                nodes.emplace(op.node, std::move(ref));
                break;
              }
              case serve::PrefixOp::Kind::Split: {
                auto &tail = nodes.at(op.tail);
                NodeRef head;
                head.startToken = tail.startToken;
                head.tokens = op.tokens;
                head.prefix.assign(
                    tail.prefix.begin(),
                    tail.prefix.begin() + tail.startToken + op.tokens);
                head.demoted = tail.demoted;
                tail.startToken += op.tokens;
                tail.tokens -= op.tokens;
                nodes.emplace(op.node, std::move(head));
                break;
              }
              case serve::PrefixOp::Kind::Evict:
              case serve::PrefixOp::Kind::DropCxl:
                ASSERT_EQ(nodes.erase(op.node), 1u);
                break;
              case serve::PrefixOp::Kind::Demote:
                nodes.at(op.node).demoted = true;
                break;
            }
        }
    }

    /** Longest cached block-prefix of @p prompt under @p cap, plus the
     *  demoted bytes a hit would read back. */
    std::pair<std::int64_t, double>
    longestMatch(const std::vector<std::int64_t> &prompt,
                 std::int64_t cap, double per_token) const
    {
        const std::int64_t limit =
            std::min<std::int64_t>(
                cap, static_cast<std::int64_t>(prompt.size())) /
            kBlock * kBlock;
        // A depth counts only when every shallower block is cached
        // too (the radix walk cannot jump gaps), so scan depths in
        // order and stop at the first one no node covers.
        std::int64_t best = 0;
        double cxl = 0;
        for (std::int64_t depth = kBlock; depth <= limit;
             depth += kBlock) {
            const NodeRef *cover = nullptr;
            for (const auto &entry : nodes) {
                const NodeRef &ref = entry.second;
                if (ref.startToken < depth &&
                    depth <= ref.startToken + ref.tokens &&
                    static_cast<std::int64_t>(ref.prefix.size()) >=
                        depth &&
                    std::equal(ref.prefix.begin(),
                               ref.prefix.begin() + depth,
                               prompt.begin())) {
                    cover = &ref;
                    break;
                }
            }
            if (cover == nullptr)
                break;
            best = depth;
            if (cover->demoted)
                cxl += per_token * static_cast<double>(kBlock);
        }
        return {best, cxl};
    }
};

/** Random block-aligned prompt over a tiny alphabet, with a ragged
 *  tail that exercises block-floor rounding. Half the time it extends
 *  a random block-prefix of an earlier prompt in @p seen, so shared
 *  prefixes, splits, partial matches and hits are frequent (fresh
 *  8-token blocks over three letters almost never collide). */
std::vector<std::int64_t>
randomPrompt(std::mt19937_64 &rng,
             const std::vector<std::vector<std::int64_t>> &seen)
{
    std::vector<std::int64_t> prompt;
    if (!seen.empty() && std::uniform_int_distribution<int>(0, 1)(rng)) {
        const auto &base = seen[std::uniform_int_distribution<std::size_t>(
            0, seen.size() - 1)(rng)];
        const std::int64_t keep =
            std::uniform_int_distribution<std::int64_t>(
                0, static_cast<std::int64_t>(base.size()) / kBlock)(rng);
        prompt.assign(base.begin(), base.begin() + keep * kBlock);
    }
    const std::int64_t blocks =
        std::uniform_int_distribution<std::int64_t>(1, 6)(rng);
    std::uniform_int_distribution<std::int64_t> token(0, 2);
    for (std::int64_t i = 0; i < blocks * kBlock; ++i)
        prompt.push_back(token(rng));
    const std::int64_t tail =
        std::uniform_int_distribution<std::int64_t>(0, kBlock - 1)(rng);
    for (std::int64_t i = 0; i < tail; ++i)
        prompt.push_back(token(rng));
    return prompt;
}

std::size_t
scenarioCount()
{
    return test::envScenarioCount("LIA_PREFIX_SCENARIOS", 60);
}

using Views = std::map<std::uint64_t, serve::PrefixCache::NodeView>;

Views
viewsOf(const serve::PrefixCache &cache)
{
    Views views;
    for (const auto &view : cache.nodes())
        views.emplace(view.id, view);
    return views;
}

/**
 * Ids whose per-node checks a step can have changed: new nodes, nodes
 * whose parent/span/start/residency (or, unless @p skip_refs, refcount)
 * moved, and nodes whose parent is new or changed its span. lastUse
 * and child counts are not inputs to any per-node check.
 */
std::vector<std::uint64_t>
changedIds(const Views &before, const Views &after, bool skip_refs)
{
    const auto moved = [&](std::uint64_t id) {
        const auto old = before.find(id);
        if (old == before.end())
            return true;
        const auto &a = old->second;
        const auto &b = after.at(id);
        return a.parent != b.parent || a.tokens != b.tokens ||
               a.startToken != b.startToken || a.demoted != b.demoted ||
               (!skip_refs && a.refs != b.refs);
    };
    std::vector<std::uint64_t> ids;
    for (const auto &entry : after) {
        const auto &view = entry.second;
        if (moved(view.id) ||
            (view.parent != 0 && (before.count(view.parent) == 0 ||
                                  before.at(view.parent).tokens !=
                                      after.at(view.parent).tokens ||
                                  before.at(view.parent).startToken !=
                                      after.at(view.parent).startToken)))
            ids.push_back(view.id);
    }
    return ids;
}

TEST(PrefixCacheProperty, MatchesNaiveReferenceUnderRandomOps)
{
    const double per_token =
        test::tinyServedModel().kvBytesPerToken();
    std::mt19937_64 rng(20260808);

    for (std::size_t scenario = 0; scenario < scenarioCount();
         ++scenario) {
        // Budgets span "everything fits" to "constant reclaim".
        const double budgets[] = {4096, 16384, 65536};
        // Cheap transfers demote aggressively; expensive ones drop.
        const double scales[] = {1e-9, 1e-3};
        Harness h(budgets[scenario % 3], scales[scenario % 2]);
        Reference ref;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> pins;
        std::vector<std::vector<std::int64_t>> seen;

        const int steps =
            std::uniform_int_distribution<int>(20, 60)(rng);
        for (int step = 0; step < steps; ++step) {
            const int action =
                std::uniform_int_distribution<int>(0, 9)(rng);
            const std::vector<std::int64_t> prompt =
                randomPrompt(rng, seen);
            const Views before = viewsOf(h.cache);
            std::vector<serve::PrefixOp> ops;
            std::vector<serve::PrefixHit> hits;
            bool unpinned = false;

            if (action < 5) {
                ops = h.cache.insert(prompt,
                                     static_cast<std::uint64_t>(step));
                ref.apply(ops, prompt);
                seen.push_back(prompt);
            } else if (action < 8) {
                const std::int64_t cap =
                    std::uniform_int_distribution<std::int64_t>(
                        1, 64)(rng);
                const auto match = h.cache.lookup(prompt, cap);
                const auto naive =
                    ref.longestMatch(prompt, cap, per_token);
                ASSERT_EQ(match.tokens, naive.first)
                    << "scenario " << scenario << " step " << step;
                EXPECT_NEAR(match.cxlBytes, naive.second, 0.5);
                if (match.hit() &&
                    std::uniform_int_distribution<int>(0, 1)(rng)) {
                    hits.push_back(h.cache.commitHit(match, 0));
                    pins.emplace_back(hits.back().node,
                                      hits.back().node);
                }
            } else if (action < 9) {
                const double want =
                    per_token *
                    std::uniform_int_distribution<std::int64_t>(
                        1, 128)(rng);
                ops = h.cache.makeRoom(want);
                ref.apply(ops, prompt);
                // Reclaim must never have freed a pinned node.
                for (const auto &pin : pins)
                    EXPECT_TRUE(ref.nodes.count(pin.first))
                        << "eviction freed pinned node " << pin.first;
            } else if (!pins.empty()) {
                h.cache.unpin(pins.back().first);
                pins.pop_back();
                unpinned = true;
            }

            // The per-plan check must cover every node whose checked
            // inputs this step changed (unpin only lowers a refcount,
            // asserting it stays >= 0, and emits no plan).
            const auto checked = h.cache.checkPlan(ops, hits);
            for (std::uint64_t id :
                 changedIds(before, viewsOf(h.cache), unpinned))
                EXPECT_TRUE(std::binary_search(checked.begin(),
                                               checked.end(), id))
                    << "scenario " << scenario << " step " << step
                    << ": node " << id << " changed but went unchecked";

            // Structural + ledger invariants after every step; the
            // full sweep is the oracle for the per-plan check above.
            h.cache.checkInvariants();
            double span_bytes = 0;
            for (const auto &view : h.cache.nodes()) {
                EXPECT_GE(view.refs, 0);
                EXPECT_EQ(view.tokens % kBlock, 0);
                span_bytes +=
                    per_token * static_cast<double>(view.tokens);
            }
            EXPECT_NEAR(span_bytes,
                        h.cache.ddrBytes() + h.cache.cxlBytes(), 0.5);
            EXPECT_EQ(h.cache.size(), ref.nodes.size());
        }
        while (!pins.empty()) {
            h.cache.unpin(pins.back().first);
            pins.pop_back();
        }
    }
}

TEST(PrefixCacheProperty, PinnedNodesSurviveFullReclaim)
{
    Harness h(1 << 20);
    std::vector<std::int64_t> prompt(4 * kBlock, 7);
    h.cache.insert(prompt, 1);

    const auto match = h.cache.lookup(prompt, 3 * kBlock);
    ASSERT_EQ(match.tokens, 3 * kBlock);
    const auto hit = h.cache.commitHit(match, 0);

    // Reclaim far more than the tree holds: the pinned terminal (and
    // every ancestor) must survive; only unpinned leaves may go.
    h.cache.makeRoom(1e9);
    h.cache.checkInvariants();
    bool terminal_alive = false;
    for (const auto &view : h.cache.nodes())
        terminal_alive |= view.id == hit.node;
    EXPECT_TRUE(terminal_alive);

    // Unpinned, the whole tree is reclaimable (demotions count as
    // reclaimed DDR; a drained tree holds no resident bytes).
    h.cache.unpin(hit.node);
    h.cache.makeRoom(1e9);
    h.cache.checkInvariants();
    EXPECT_DOUBLE_EQ(h.cache.ddrBytes(), 0.0);
}

TEST(PrefixCacheProperty, InsertionSpendsOnlyHeadroom)
{
    // Live KV first: a reservation takes most of the budget, leaving
    // headroom for exactly two blocks of cached prefix.
    const double per_token =
        test::tinyServedModel().kvBytesPerToken();
    Harness h(per_token * 40);
    serve::Request live;
    live.id = 0;
    live.lIn = 31;
    live.lOut = 1;
    h.admission.reserve(live);

    std::vector<std::int64_t> prompt(4 * kBlock, 3);
    h.cache.insert(prompt, 1);
    h.cache.checkInvariants();
    // Whatever was cached fits the leftover headroom; live KV intact.
    EXPECT_LE(h.cache.ddrBytes(),
              h.admission.kvBudgetBytes() -
                  h.admission.reservedBytes() + 0.5);
    EXPECT_DOUBLE_EQ(h.admission.reservedBytes(),
                     per_token * 32);
    h.admission.release(live);
}

TEST(PrefixCacheProperty, SplitPreservesMatchDepths)
{
    Harness h(1 << 20);
    // Two prompts sharing two blocks, diverging in the third.
    std::vector<std::int64_t> a(4 * kBlock, 1);
    std::vector<std::int64_t> b(a.begin(), a.begin() + 2 * kBlock);
    b.resize(4 * kBlock, 2);

    h.cache.insert(a, 1);
    const auto ops = h.cache.insert(b, 2);
    h.cache.checkInvariants();

    // The divergence forced exactly one split and one insert.
    std::size_t splits = 0, inserts = 0;
    for (const auto &op : ops) {
        splits += op.kind == serve::PrefixOp::Kind::Split;
        inserts += op.kind == serve::PrefixOp::Kind::Insert;
    }
    EXPECT_EQ(splits, 1u);
    EXPECT_EQ(inserts, 1u);

    // Both prompts still match in full; a half-block cap floors down.
    EXPECT_EQ(h.cache.lookup(a, 4 * kBlock).tokens, 4 * kBlock);
    EXPECT_EQ(h.cache.lookup(b, 4 * kBlock).tokens, 4 * kBlock);
    EXPECT_EQ(h.cache.lookup(a, 3 * kBlock - 1).tokens, 2 * kBlock);
}

TEST(PrefixCacheProperty, PlanCheckCoversASplitTailsChildren)
{
    Harness h(1 << 20);
    // A is four blocks; C extends A by two more, so C hangs under A.
    std::vector<std::int64_t> a(4 * kBlock, 1);
    std::vector<std::int64_t> c(a);
    c.resize(6 * kBlock, 3);
    const auto insert_a = h.cache.insert(a, 1);
    ASSERT_EQ(insert_a.size(), 1u);
    const std::uint64_t a_id = insert_a.front().node;
    h.cache.checkPlan(insert_a, {});
    const auto insert_c = h.cache.insert(c, 2);
    ASSERT_EQ(insert_c.size(), 1u);
    const std::uint64_t c_id = insert_c.front().node;
    h.cache.checkPlan(insert_c, {});

    // B diverges after two blocks: A splits, its tail keeps child C.
    std::vector<std::int64_t> b(a.begin(), a.begin() + 2 * kBlock);
    b.resize(4 * kBlock, 2);
    const auto ops = h.cache.insert(b, 3);
    ASSERT_EQ(ops.size(), 2u);
    ASSERT_EQ(ops[0].kind, serve::PrefixOp::Kind::Split);
    ASSERT_EQ(ops[0].tail, a_id);
    ASSERT_EQ(ops[1].kind, serve::PrefixOp::Kind::Insert);

    const auto checked = h.cache.checkPlan(ops, {});
    h.cache.checkInvariants();
    const std::vector<std::uint64_t> want = {a_id, c_id, ops[0].node,
                                             ops[1].node};
    for (std::uint64_t id : want)
        EXPECT_TRUE(std::binary_search(checked.begin(), checked.end(), id))
            << "node " << id << " went unchecked";
    const auto views = viewsOf(h.cache);
    EXPECT_EQ(views.at(c_id).parent, a_id);
}

TEST(PrefixCacheProperty, InsertNeverReclaimsItsOwnWalkPath)
{
    // Regression: inserting a prompt that extends a cached prefix
    // walks through the shared ancestor, then reclaims headroom for
    // the new suffix. The reclaim must not victimize the very node
    // the walk stands on — that would hang the new node under a
    // freed parent. Budget holds exactly the shared node, transfers
    // are priced prohibitively (eviction, never demotion).
    const double per_token =
        test::tinyServedModel().kvBytesPerToken();
    Harness h(per_token * 2 * kBlock, /*transfer_scale=*/1e3);

    std::vector<std::int64_t> shared(2 * kBlock, 4);
    h.cache.insert(shared, 1);
    ASSERT_EQ(h.cache.size(), 1u);

    std::vector<std::int64_t> extended(shared);
    extended.resize(4 * kBlock, 5);
    const auto ops = h.cache.insert(extended, 2);
    h.cache.checkInvariants();

    // No headroom and no reclaimable victim off the walk path: the
    // suffix stays uncached, the shared prefix stays matchable.
    for (const auto &op : ops)
        EXPECT_NE(op.kind, serve::PrefixOp::Kind::Evict);
    EXPECT_EQ(h.cache.size(), 1u);
    EXPECT_EQ(h.cache.lookup(shared, 2 * kBlock).tokens, 2 * kBlock);
    EXPECT_EQ(h.cache.lookup(extended, 4 * kBlock).tokens, 2 * kBlock);
}

TEST(PrefixCacheProperty, DemotedNodesStayMatchableAndPriceReads)
{
    const double per_token =
        test::tinyServedModel().kvBytesPerToken();
    // Near-free transfers: the §5 rule always prefers demotion.
    Harness h(1 << 20, 1e-12);
    std::vector<std::int64_t> prompt(3 * kBlock, 5);
    h.cache.insert(prompt, 1);
    const double bytes = h.cache.ddrBytes();
    ASSERT_GT(bytes, 0);

    const auto ops = h.cache.makeRoom(bytes);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops.front().kind, serve::PrefixOp::Kind::Demote);
    EXPECT_DOUBLE_EQ(h.cache.ddrBytes(), 0.0);
    EXPECT_DOUBLE_EQ(h.cache.cxlBytes(), bytes);
    h.cache.checkInvariants();

    // Still matchable — and the hit charges the read-back bytes.
    const auto match = h.cache.lookup(prompt, 3 * kBlock);
    EXPECT_EQ(match.tokens, 3 * kBlock);
    EXPECT_NEAR(match.cxlBytes, per_token * 3 * kBlock, 0.5);
}

} // namespace
