/**
 * @file
 * Property suite for the ragged forward pass (DESIGN.md §6).
 *
 * CooperativeExecutor::forward runs one pass over many caches, each
 * feeding its own rows × T tokens — one m = Σ rows·T call per
 * projection, LayerNorm and the LM head, one KV append per cache,
 * attention over one view per row with its own query count. It must
 * be indistinguishable from one single-feed forward per feed: the
 * same tokens, bit-identical KV caches, and the same transfer-ledger
 * bytes and modelled time. Random scenarios mix, in one pass, decode
 * steps, prefill chunks on caches with history (some of it attached
 * from a prefix span with preload()), multi-token Decode feeds shaped
 * like a speculative verify (every position sampled) and batch-2
 * caches, over fp32 and int8 weights, OPT and GQA Llama
 * (kvHeads < heads) models, changing subsets of caches from step to
 * step, and pools of 1, 2 and 4 threads.
 *
 * Scenario count scales with LIA_PROPERTY_SCENARIOS like the other
 * property suites.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "hw/catalog.hh"
#include "model/config.hh"
#include "runtime/executor.hh"

namespace {

using namespace lia;
using namespace lia::runtime;
using base::ThreadPool;

std::size_t
scenarioCount()
{
    if (const char *env = std::getenv("LIA_PROPERTY_SCENARIOS")) {
        const long scenarios = std::atol(env);
        if (scenarios > 0)
            return static_cast<std::size_t>(scenarios) / 10 + 1;
    }
    return 40;
}

std::shared_ptr<ThreadPool>
pool(int threads)
{
    static const std::vector<std::shared_ptr<ThreadPool>> pools{
        std::make_shared<ThreadPool>(1), std::make_shared<ThreadPool>(2),
        std::make_shared<ThreadPool>(4)};
    return pools[threads == 1 ? 0 : threads == 2 ? 1 : 2];
}

struct Variant
{
    std::string name;
    model::ModelConfig model;
    model::WeightPrecision precision;
};

std::vector<Variant>
variants()
{
    using model::WeightPrecision;
    const model::ModelConfig llama = model::tinyLlama(64, 2, 4, 2, 256,
                                                      256);
    return {
        {"opt-fp32", model::tinyOpt(), WeightPrecision::Bf16},
        {"opt-int8",
         model::quantized(model::tinyOpt(), WeightPrecision::Int8),
         WeightPrecision::Int8},
        {"llama-gqa-fp32", llama, WeightPrecision::Bf16},
        {"llama-gqa-int8",
         model::quantized(llama, WeightPrecision::Int8),
         WeightPrecision::Int8},
    };
}

/** Every layer's K and V of two caches, memcmp-equal. */
bool
sameKv(const KvCache &a, const KvCache &b, std::int64_t layers)
{
    if (a.length() != b.length())
        return false;
    for (std::int64_t l = 0; l < layers; ++l) {
        const Tensor ka = a.keys(l), kb = b.keys(l);
        const Tensor va = a.values(l), vb = b.values(l);
        const auto bytes =
            sizeof(float) * static_cast<std::size_t>(ka.numel());
        if (std::memcmp(ka.data(), kb.data(), bytes) != 0 ||
            std::memcmp(va.data(), vb.data(), bytes) != 0)
            return false;
    }
    return true;
}

/** What the ledger and the devices have been charged so far. */
struct Charges
{
    double param = 0, activation = 0, kv = 0, modelled = 0;

    explicit Charges(const CooperativeExecutor &exec)
        : param(exec.ledger().bytes(Traffic::Param)),
          activation(exec.ledger().bytes(Traffic::Activation)),
          kv(exec.ledger().bytes(Traffic::Kv)),
          modelled(exec.modeledSerialLatency())
    {}

    bool
    operator==(const Charges &o) const
    {
        return param == o.param && activation == o.activation &&
               kv == o.kv && modelled == o.modelled;
    }
};

/** One cache of a scenario, in a sequential and a batched copy. */
struct Unit
{
    enum class Kind { Decode, Chunked, Verify, Pair } kind = Kind::Decode;
    std::unique_ptr<KvCache> seq, bat;
    std::vector<std::int64_t> pending;  //!< prompt tokens left (Chunked)
    std::vector<std::int64_t> last;     //!< last token of each row
};

TEST(DecodeBatchProperty, MatchesSequentialDecodeOneBitForBit)
{
    const std::vector<Variant> all = variants();
    std::mt19937_64 gen(20261022);
    const auto pick = [&gen](std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen);
    };
    for (std::size_t it = 0; it < scenarioCount(); ++it) {
        const Variant &variant =
            all[static_cast<std::size_t>(pick(0, 3))];
        const model::ModelConfig &m = variant.model;
        const int threads = static_cast<int>(pick(0, 2) == 0 ? 1
                                             : pick(0, 1)   ? 2
                                                            : 4);
        ExecutorConfig cfg;
        cfg.weightPrecision = variant.precision;
        cfg.pool = pool(threads);
        // Some layers offloaded so the ledger records traffic, under
        // different plans for the prefill and the decode feeds.
        cfg.prefillPolicy = core::Policy::fromMask(
            static_cast<unsigned>(pick(0, 63)));
        cfg.decodePolicy = core::Policy::fromMask(
            static_cast<unsigned>(pick(0, 63)));
        cfg.residentLayers = static_cast<int>(pick(0, 1));
        Rng rng(static_cast<std::uint64_t>(500 + it));
        CooperativeExecutor exec(hw::sprA100(),
                                 TransformerWeights::random(m, rng), cfg);
        const auto token = [&] { return pick(0, m.vocabSize - 1); };
        const auto tokens = [&](std::int64_t n) {
            std::vector<std::int64_t> out;
            for (std::int64_t t = 0; t < n; ++t)
                out.push_back(token());
            return out;
        };
        // One single-feed pass on each copy of a unit; both must agree.
        const auto both = [&](Unit &u, std::vector<std::int64_t> feed,
                              model::Stage stage) {
            const ForwardFeed a{u.seq.get(), feed, stage};
            const ForwardFeed b{u.bat.get(), std::move(feed), stage};
            const std::vector<std::int64_t> got = exec.forward({&a, 1});
            EXPECT_EQ(exec.forward({&b, 1}), got);
            return got;
        };

        std::vector<Unit> units(static_cast<std::size_t>(pick(1, 8)));
        for (Unit &u : units) {
            u.kind = static_cast<Unit::Kind>(pick(0, 3));
            const std::int64_t rows = u.kind == Unit::Kind::Pair ? 2 : 1;
            u.seq = std::make_unique<KvCache>(m, rows, m.maxSeqLen);
            u.bat = std::make_unique<KvCache>(m, rows, m.maxSeqLen);
            const std::int64_t len = pick(1, 40);
            std::vector<std::int64_t> prompt = tokens(rows * len);
            if (rows == 1 && len > 1 && pick(0, 2) == 0) {
                // Start both copies from a shared prefix span, as a
                // prefix-cache hit does.
                const std::int64_t attached = pick(1, len - 1);
                KvCache donor(m, 1, m.maxSeqLen);
                const ForwardFeed feed{
                    &donor, {prompt.begin(), prompt.begin() + attached},
                    model::Stage::Prefill};
                exec.forward({&feed, 1});
                const KvSpan span = donor.snapshotRange(0, attached);
                ASSERT_TRUE(u.seq->preload(span));
                ASSERT_TRUE(u.bat->preload(span));
                prompt.erase(prompt.begin(), prompt.begin() + attached);
            }
            if (u.kind == Unit::Kind::Chunked) {
                // Prefill part of the prompt now, chunk the rest into
                // the mixed passes; an attached prefix already counts
                // as history.
                const auto size = static_cast<std::int64_t>(prompt.size());
                const std::int64_t now =
                    u.seq->length() > 0 ? pick(0, size - 1)
                                        : pick(1, size);
                u.pending.assign(prompt.begin() + now, prompt.end());
                prompt.resize(static_cast<std::size_t>(now));
                if (prompt.empty())
                    continue;
            }
            u.last = both(u, prompt, model::Stage::Prefill);
        }

        const std::int64_t steps = pick(1, 6);
        for (std::int64_t step = 0; step < steps; ++step) {
            // A changing subset of the caches feeds each step, as
            // requests join and leave the batch.
            std::vector<std::size_t> active;
            for (std::size_t u = 0; u < units.size(); ++u)
                if (units.size() == 1 || pick(0, 3) != 0)
                    active.push_back(u);
            if (active.empty())
                active.push_back(0);

            std::vector<ForwardFeed> seq_feeds, bat_feeds;
            for (std::size_t u : active) {
                Unit &unit = units[u];
                ForwardFeed feed{nullptr, unit.last, model::Stage::Decode};
                if (!unit.pending.empty()) {
                    const auto chunk = static_cast<std::ptrdiff_t>(pick(
                        1, static_cast<std::int64_t>(unit.pending.size())));
                    feed.tokens.assign(unit.pending.begin(),
                                       unit.pending.begin() + chunk);
                    feed.stage = model::Stage::Prefill;
                    unit.pending.erase(unit.pending.begin(),
                                       unit.pending.begin() + chunk);
                } else if (unit.kind == Unit::Kind::Verify) {
                    // The last token plus k drafts, every position
                    // sampled.
                    const std::vector<std::int64_t> drafts =
                        tokens(pick(1, 4));
                    feed.tokens.insert(feed.tokens.end(), drafts.begin(),
                                       drafts.end());
                    feed.sampleEvery = true;
                }
                feed.cache = unit.seq.get();
                seq_feeds.push_back(feed);
                feed.cache = unit.bat.get();
                bat_feeds.push_back(std::move(feed));
            }

            exec.resetStats();
            std::vector<std::int64_t> want;
            for (const ForwardFeed &feed : seq_feeds) {
                const std::vector<std::int64_t> got =
                    exec.forward({&feed, 1});
                want.insert(want.end(), got.begin(), got.end());
            }
            const Charges sequential(exec);

            exec.resetStats();
            const std::vector<std::int64_t> got = exec.forward(bat_feeds);
            std::string where = "scenario " + std::to_string(it) + " (" +
                                variant.name + ", step " +
                                std::to_string(step) + ", " +
                                std::to_string(threads) + " threads, feeds";
            for (const ForwardFeed &feed : bat_feeds)
                where += " " + std::to_string(feed.cache->batch()) + "x" +
                         std::to_string(static_cast<std::int64_t>(
                                            feed.tokens.size()) /
                                        feed.cache->batch()) +
                         (feed.stage == model::Stage::Prefill ? "p" : "d");
            where += ")";
            ASSERT_EQ(got, want) << where;
            EXPECT_TRUE(Charges(exec) == sequential)
                << where << ": ledger or modelled time differs";

            // Each cache decodes on from its final samples.
            std::size_t at = 0;
            for (std::size_t i = 0; i < active.size(); ++i) {
                const ForwardFeed &feed = bat_feeds[i];
                const std::int64_t rows = feed.cache->batch();
                const auto per_row =
                    static_cast<std::int64_t>(feed.tokens.size()) / rows;
                const std::int64_t sampled =
                    feed.sampleEvery ? per_row : 1;
                std::vector<std::int64_t> &last = units[active[i]].last;
                last.clear();
                for (std::int64_t r = 0; r < rows; ++r) {
                    at += static_cast<std::size_t>(sampled);
                    last.push_back(got[at - 1]);
                }
            }
            ASSERT_EQ(at, got.size()) << where;
        }
        for (std::size_t u = 0; u < units.size(); ++u)
            ASSERT_TRUE(sameKv(*units[u].seq, *units[u].bat, m.numLayers))
                << "scenario " << it << " cache " << u
                << ": KV caches differ";
    }
}

TEST(DecodeBatchProperty, DecodeStepOfABatchCacheMatchesPerRowCaches)
{
    // A batch-B cache is B views of itself: passes over one batch-2
    // cache and over two batch-1 caches give the same tokens.
    const model::ModelConfig m = model::tinyOpt();
    Rng rng(77);
    CooperativeExecutor exec(hw::sprA100(),
                             TransformerWeights::random(m, rng), {});
    const std::vector<std::int64_t> p0{3, 9, 27, 81, 5};
    const std::vector<std::int64_t> p1{2, 4, 8, 16, 32};
    KvCache pair(m, 2, m.maxSeqLen), a(m, 1, m.maxSeqLen),
        b(m, 1, m.maxSeqLen);
    std::vector<ForwardFeed> joint{{&pair, p0, model::Stage::Prefill}};
    joint[0].tokens.insert(joint[0].tokens.end(), p1.begin(), p1.end());
    std::vector<ForwardFeed> split{{&a, p0, model::Stage::Prefill},
                                   {&b, p1, model::Stage::Prefill}};
    for (int step = 0; step < 6; ++step) {
        const std::vector<std::int64_t> next = exec.forward(joint);
        ASSERT_EQ(exec.forward(split), next) << "step " << step;
        joint[0] = {&pair, next};
        split = {{&a, {next[0]}}, {&b, {next[1]}}};
    }
}

} // namespace
