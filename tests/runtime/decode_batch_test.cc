/**
 * @file
 * Property suite for the batched decode pass (DESIGN.md §6).
 *
 * CooperativeExecutor::decodeBatch runs one forward pass over B
 * sequences — one m = B call per projection, LayerNorm and the LM
 * head, one KV append per row, attention over one view per row. It
 * must be indistinguishable from B sequential decodeOne calls: the
 * same tokens, bit-identical KV caches, and the same transfer-ledger
 * bytes and modelled time. Random scenarios cover fp32 and int8
 * weights, OPT and GQA Llama (kvHeads < heads) models, B from 1 to 8,
 * ragged contexts (every sequence its own prompt length), caches that
 * start from a prefix span attached with preload(), changing subsets
 * of sequences from step to step, and pools of 1, 2 and 4 threads.
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
        // Some layers offloaded so the ledger records traffic.
        cfg.decodePolicy = core::Policy::fromMask(
            static_cast<unsigned>(pick(0, 63)));
        cfg.residentLayers = static_cast<int>(pick(0, 1));
        Rng rng(static_cast<std::uint64_t>(500 + it));
        CooperativeExecutor exec(hw::sprA100(),
                                 TransformerWeights::random(m, rng), cfg);

        const auto batch = static_cast<std::size_t>(pick(1, 8));
        const std::int64_t steps = pick(1, 6);
        const auto token = [&] { return pick(0, m.vocabSize - 1); };
        std::vector<std::unique_ptr<KvCache>> seq, bat;
        std::vector<std::int64_t> last;
        for (std::size_t b = 0; b < batch; ++b) {
            const std::int64_t len = pick(1, 40);
            std::vector<std::int64_t> prompt;
            for (std::int64_t t = 0; t < len; ++t)
                prompt.push_back(token());
            seq.push_back(std::make_unique<KvCache>(m, 1, m.maxSeqLen));
            bat.push_back(std::make_unique<KvCache>(m, 1, m.maxSeqLen));
            std::int64_t attached = 0;
            if (len > 1 && pick(0, 2) == 0) {
                // Start both copies from a shared prefix span, as a
                // prefix-cache hit does.
                attached = pick(1, len - 1);
                KvCache donor(m, 1, m.maxSeqLen);
                exec.prefillChunk(donor, {prompt.begin(),
                                          prompt.begin() + attached});
                const KvSpan span = donor.snapshotRange(0, attached);
                ASSERT_TRUE(seq.back()->preload(span));
                ASSERT_TRUE(bat.back()->preload(span));
            }
            const std::vector<std::int64_t> rest(
                prompt.begin() + attached, prompt.end());
            const std::int64_t first = exec.prefillChunk(*seq.back(), rest);
            ASSERT_EQ(exec.prefillChunk(*bat.back(), rest), first);
            last.push_back(first);
        }

        for (std::int64_t step = 0; step < steps; ++step) {
            // A changing subset of the sequences decodes each step,
            // as requests join and leave the batch.
            std::vector<std::size_t> rows;
            for (std::size_t b = 0; b < batch; ++b)
                if (batch == 1 || pick(0, 3) != 0)
                    rows.push_back(b);
            if (rows.empty())
                rows.push_back(0);

            exec.resetStats();
            std::vector<std::int64_t> want;
            for (std::size_t b : rows)
                want.push_back(exec.decodeOne(*seq[b], last[b]));
            const Charges sequential(exec);

            exec.resetStats();
            std::vector<KvCache *> caches;
            std::vector<std::int64_t> feed;
            for (std::size_t b : rows) {
                caches.push_back(bat[b].get());
                feed.push_back(last[b]);
            }
            const std::vector<std::int64_t> got =
                exec.decodeBatch(caches, feed);
            const std::string where =
                "scenario " + std::to_string(it) + " (" + variant.name +
                ", B " + std::to_string(rows.size()) + " of " +
                std::to_string(batch) + ", step " + std::to_string(step) +
                ", " + std::to_string(threads) + " threads)";
            ASSERT_EQ(got, want) << where;
            EXPECT_TRUE(Charges(exec) == sequential)
                << where << ": ledger or modelled time differs";
            for (std::size_t i = 0; i < rows.size(); ++i)
                last[rows[i]] = got[i];
        }
        for (std::size_t b = 0; b < batch; ++b)
            ASSERT_TRUE(sameKv(*seq[b], *bat[b], m.numLayers))
                << "scenario " << it << " sequence " << b
                << ": KV caches differ";
    }
}

TEST(DecodeBatchProperty, DecodeStepOfABatchCacheMatchesPerRowCaches)
{
    // A batch-B cache is B views of itself: decodeStep over one batch-2
    // cache and decodeBatch over two batch-1 caches give the same
    // tokens.
    const model::ModelConfig m = model::tinyOpt();
    Rng rng(77);
    CooperativeExecutor exec(hw::sprA100(),
                             TransformerWeights::random(m, rng), {});
    const std::vector<std::vector<std::int64_t>> prompts{
        {3, 9, 27, 81, 5}, {2, 4, 8, 16, 32}};
    std::vector<std::int64_t> next = exec.prefill(prompts);
    KvCache a(m, 1, m.maxSeqLen), b(m, 1, m.maxSeqLen);
    std::vector<std::int64_t> split{exec.prefillChunk(a, prompts[0]),
                                    exec.prefillChunk(b, prompts[1])};
    ASSERT_EQ(split, next);
    KvCache *const caches[] = {&a, &b};
    for (int step = 0; step < 5; ++step) {
        next = exec.decodeStep(next);
        split = exec.decodeBatch(caches, split);
        ASSERT_EQ(split, next) << "step " << step;
    }
}

} // namespace
