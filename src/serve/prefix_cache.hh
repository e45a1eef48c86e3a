/**
 * @file
 * Cross-request prefix caching: a radix tree over token-block
 * prefixes whose nodes reference immutable KV spans (DESIGN.md §10).
 *
 * Prompts are cut into fixed-size token blocks
 * (Config::prefix.blockTokens); tree nodes span one or more whole
 * blocks and children are keyed by their first block, so any two
 * cached prompts share exactly their longest common block-aligned
 * prefix. An admission that matches a cached prefix skips prefill for
 * the matched tokens and chunk-prefills only the suffix; the matched
 * node is pinned (ref-counted) until the hit's prefill pass completes,
 * so eviction can never free KV a live request is attaching.
 *
 * The cache competes with live KV for the DDR budget through the
 * admission controller's separate cache ledger: inserting only spends
 * headroom left by live reservations, and when live work needs bytes
 * back the scheduler reclaims cold cache nodes *before* preempting
 * requests (live KV always wins). Reclaim walks unpinned leaves in
 * LRU order and prices each victim with the §5 analytical rule: a
 * node demotes to the CXL pool when reading it back costs less than
 * recomputing its prefix (transferSeconds(bytes) <=
 * recomputeSeconds(prefixTokens) and the pool has room), else it is
 * dropped. Demoted nodes stay matchable — a hit on one charges the
 * read-back bytes to the swap channel.
 *
 * The tree itself is pure engine-side bookkeeping over token values;
 * every structural mutation is also emitted as a PrefixOp in the
 * iteration plan, in execution order, so the runtime backend can
 * mirror the node payloads (actual KV spans + FNV-1a digests) and
 * verify every hit bit-identically.
 */

#ifndef LIA_SERVE_PREFIX_CACHE_HH
#define LIA_SERVE_PREFIX_CACHE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "model/config.hh"
#include "serve/admission.hh"
#include "serve/config.hh"
#include "serve/request.hh"

namespace lia {
namespace serve {

/**
 * Deterministic synthetic prompt of @p request. Independent prompts
 * (poolId < 0) reproduce the PR 3 splitmix stream from (seed, id)
 * bit-for-bit; pool members draw their first sharedLen tokens from a
 * pool-salted stream instead, so every member of one pool shares a
 * bit-identical prompt prefix (and then diverges on the id stream).
 * Both the engine-side radix tree and the runtime backend synthesize
 * prompts through this one function.
 */
std::vector<std::int64_t> synthesizePrompt(std::uint64_t seed,
                                           const Request &request,
                                           std::int64_t vocab);

/** One mirrored mutation of the radix tree, in execution order. */
struct PrefixOp
{
    enum class Kind
    {
        Insert,   //!< new node copied out of a completed pass's KV
        Split,    //!< node split at a block boundary (new head node)
        Evict,    //!< resident node dropped (DDR freed)
        Demote,   //!< resident node moved to the CXL pool
        DropCxl,  //!< demoted node dropped (CXL freed)
    };

    Kind kind = Kind::Insert;
    std::uint64_t node = 0;  //!< the node created/affected (Split: head)
    std::uint64_t tail = 0;  //!< Split only: original node keeping the tail
    std::uint64_t source = 0;     //!< Insert only: staged source request id
    std::int64_t startToken = 0;  //!< Insert only: offset in the prompt
    std::int64_t tokens = 0;      //!< span length of the affected node
};

/** One admission's cache hit, carried in the iteration plan. */
struct PrefixHit
{
    std::size_t index = 0;         //!< request index in the run's pool
    std::uint64_t node = 0;        //!< pinned terminal node
    std::int64_t tokens = 0;       //!< total prompt tokens matched
    std::int64_t terminalTokens = 0;  //!< tokens matched in the terminal
    double cxlBytes = 0;           //!< demoted bytes the hit reads back
    std::vector<std::uint64_t> path;  //!< root-to-terminal node ids
};

/** Outcome of a longest-block-prefix lookup (pure; commit separately). */
struct PrefixMatch
{
    std::int64_t tokens = 0;       //!< matched tokens (block multiple)
    std::int64_t terminalTokens = 0;  //!< matched within the last node
    double cxlBytes = 0;           //!< demoted bytes on the match path
    std::vector<std::uint64_t> path;  //!< root-to-terminal node ids

    bool hit() const { return tokens > 0; }
};

/** Shared-KV radix tree with ref-counting and priced eviction. */
class PrefixCache
{
  public:
    /** §5 pricing hooks for the demote-vs-drop decision. */
    struct Pricing
    {
        /** Single-sequence prefill seconds over @p tokens of prompt. */
        std::function<double(std::int64_t)> recomputeSeconds;

        /** Seconds to move @p bytes across the DDR<->CXL channel. */
        std::function<double(double)> transferSeconds;
    };

    /** Test/introspection view of one node. */
    struct NodeView
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0;   //!< 0 = root
        std::int64_t tokens = 0;    //!< span length, block multiple
        std::int64_t startToken = 0;  //!< prefix tokens before this node
        std::int64_t refs = 0;
        std::uint64_t lastUse = 0;
        bool demoted = false;
        std::size_t children = 0;
    };

    PrefixCache(const model::ModelConfig &model, const Config &config,
                AdmissionController &admission, Pricing pricing);

    /** Token prompt of @p request (synthesizePrompt with our seed). */
    std::vector<std::int64_t> promptOf(const Request &request) const;

    /**
     * Longest cached block-prefix of @p prompt, capped at @p cap
     * tokens (callers pass lIn - 1 so a hit always leaves at least
     * one token to prefill — the pass must sample a first token).
     * Pure: no pins, no LRU stamps, no mutation.
     */
    PrefixMatch lookup(const std::vector<std::int64_t> &prompt,
                       std::int64_t cap) const;

    /**
     * Commit @p match for request @p index: pin the terminal node,
     * stamp the path's LRU clocks, and return the plan-carried hit
     * record. Call only when the request is actually admitted.
     */
    PrefixHit commitHit(const PrefixMatch &match, std::size_t index);

    /** Release the pin commitHit() took on @p node. */
    void unpin(std::uint64_t node);

    /**
     * Cache @p prompt's block-aligned prefix, reusing every node the
     * tree already holds. New bytes only spend DDR headroom left by
     * live KV (colder cache nodes are reclaimed to make room, live
     * requests never are); when headroom cannot cover the remainder
     * it simply stays uncached. Returns the emitted mutations —
     * splits, reclaim traffic, and at most one Insert sourcing
     * request @p requestId's staged pass KV.
     */
    std::vector<PrefixOp> insert(const std::vector<std::int64_t> &prompt,
                                 std::uint64_t requestId);

    /**
     * Reclaim at least @p bytes of DDR from unpinned resident nodes
     * in LRU order, demoting to CXL when the §5 rule says the
     * read-back is cheaper than the recompute the node saves,
     * dropping otherwise. Interior nodes can only demote — eviction
     * would orphan their subtree — and nodes in @p keep (an
     * in-progress insert's walk path) are never touched. Stops early
     * when no victim remains; the caller rechecks its headroom.
     */
    std::vector<PrefixOp>
    makeRoom(double bytes,
             const std::set<std::uint64_t> *keep = nullptr);

    /** DDR bytes held by resident nodes (== admission cache ledger). */
    double ddrBytes() const { return ddrBytes_; }

    /** CXL bytes held by demoted nodes (== admission cache ledger). */
    double cxlBytes() const { return cxlBytes_; }

    std::int64_t blockTokens() const { return blockTokens_; }

    /** Live node count (root excluded). */
    std::size_t size() const { return nodes_.size(); }

    /**
     * Structural self-check: byte ledgers equal the per-node sums and
     * the admission accounts, refcounts are never negative, children
     * link back to their parents, and every node spans at least one
     * block. Walks the whole tree; panics on violation.
     */
    void checkInvariants() const;

    /**
     * The same checks, restricted to what one plan changed: the
     * per-node checks on every node @p ops and @p hits created or
     * changed and on those nodes' direct children, reclaimed ids gone
     * from the tree, and the ledgers against running per-node byte
     * sums in O(1). Costs O(touched), not O(tree). The running sums
     * only see nodes a plan names, so call it on every mutation batch
     * (insert/makeRoom ops, commitHit records) in order, from the
     * empty tree on. Panics on violation; returns the sorted ids of
     * the nodes whose per-node checks ran.
     */
    std::vector<std::uint64_t>
    checkPlan(const std::vector<PrefixOp> &ops,
              const std::vector<PrefixHit> &hits);

    /** All nodes, id-ordered, for the property suite. */
    std::vector<NodeView> nodes() const;

  private:
    struct Node
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0;  //!< 0 = root
        /** Whole token blocks this node spans, in order. */
        std::vector<std::vector<std::int64_t>> blocks;
        /** Children keyed by their span's first block. */
        std::map<std::vector<std::int64_t>, std::uint64_t> children;
        std::int64_t startToken = 0;  //!< prefix tokens before this node
        std::int64_t refs = 0;
        std::uint64_t lastUse = 0;
        bool demoted = false;

        std::int64_t tokens(std::int64_t block_tokens) const
        {
            return static_cast<std::int64_t>(blocks.size()) *
                   block_tokens;
        }
    };

    /** Bytes checkPlan() last counted for a node, and on which side. */
    struct Counted
    {
        double bytes = 0;
        bool demoted = false;
    };

    Node &node(std::uint64_t id);
    const Node &node(std::uint64_t id) const;
    double nodeBytes(const Node &n) const;

    /** Per-node part of checkInvariants(): refcount, whole non-empty
     *  blocks, the parent (or root) edge, and startToken. */
    void checkNode(const Node &n) const;

    /** Per-node byte sums against the ledgers and admission accounts. */
    void checkLedgers(double resident, double demoted) const;

    /** Drop node @p id's counted bytes from the running sums. */
    void uncount(std::uint64_t id);

    /** Split @p child keeping its first @p keep blocks in a new head
     *  node; returns the head's id and records the op. */
    std::uint64_t split(Node &child, std::int64_t keep,
                        std::vector<PrefixOp> &ops);

    /** Children map owning @p n (root's or its parent's). */
    std::map<std::vector<std::int64_t>, std::uint64_t> &
    siblingsOf(const Node &n);

    model::ModelConfig model_;
    std::uint64_t seed_ = 0;
    std::int64_t blockTokens_ = 16;
    AdmissionController &admission_;
    Pricing pricing_;

    /** Root's children, keyed like every node's child map. */
    std::map<std::vector<std::int64_t>, std::uint64_t> rootChildren_;
    std::map<std::uint64_t, Node> nodes_;
    std::uint64_t nextId_ = 1;
    std::uint64_t clock_ = 0;  //!< LRU stamp source
    double ddrBytes_ = 0;
    double cxlBytes_ = 0;

    /** checkPlan()'s per-node counts and their running sums. */
    std::unordered_map<std::uint64_t, Counted> counted_;
    double countedDdr_ = 0;
    double countedCxl_ = 0;
};

} // namespace serve
} // namespace lia

#endif // LIA_SERVE_PREFIX_CACHE_HH
