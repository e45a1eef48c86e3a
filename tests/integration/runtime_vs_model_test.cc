/**
 * @file
 * Integration: the functional runtime's byte-accurate transfer ledger
 * and modeled busy times must agree with the analytical CostModel for
 * the same plan — the two implementations are independent, so this
 * validates both.
 */

#include <gtest/gtest.h>

#include "core/cost_model.hh"
#include "hw/system.hh"
#include "runtime/executor.hh"

namespace {

using namespace lia;
using core::Policy;

class RuntimeVsModelTest
    : public ::testing::TestWithParam<unsigned>
{
  protected:
    hw::SystemConfig sys = hw::sprA100();
    model::ModelConfig m = model::tinyOpt();

    runtime::CooperativeExecutor
    makeExecutor(const Policy &policy, int resident = 0)
    {
        Rng rng(123);
        runtime::ExecutorConfig cfg;
        cfg.prefillPolicy = policy;
        cfg.decodePolicy = policy;
        cfg.residentLayers = resident;
        return runtime::CooperativeExecutor(
            sys, runtime::TransformerWeights::random(m, rng), cfg);
    }

    /** Prefill same-length prompts into @p cache: one forward pass. */
    std::vector<std::int64_t>
    prefill(runtime::CooperativeExecutor &exec, runtime::KvCache &cache,
            std::int64_t len)
    {
        runtime::ForwardFeed feed{&cache, {}, model::Stage::Prefill};
        for (const auto &p : prompts(cache.batch(), len))
            feed.tokens.insert(feed.tokens.end(), p.begin(), p.end());
        return exec.forward({&feed, 1});
    }

    std::vector<std::vector<std::int64_t>>
    prompts(std::int64_t batch, std::int64_t len)
    {
        std::vector<std::vector<std::int64_t>> out;
        for (std::int64_t b = 0; b < batch; ++b) {
            std::vector<std::int64_t> p;
            for (std::int64_t t = 0; t < len; ++t)
                p.push_back((5 * b + t) % m.vocabSize);
            out.push_back(std::move(p));
        }
        return out;
    }
};

TEST_P(RuntimeVsModelTest, PrefillBytesMatchAnalyticalModel)
{
    const Policy policy = Policy::fromMask(GetParam());
    auto exec = makeExecutor(policy);
    const std::int64_t batch = 2, l_in = 8;
    exec.generate(prompts(batch, l_in), 1);

    core::CostModel cm(sys, m, {});
    const auto timing = cm.layerTiming(
        {model::Stage::Prefill, batch, l_in}, policy);
    const double layers = static_cast<double>(m.numLayers);

    EXPECT_NEAR(exec.ledger().bytes(runtime::Traffic::Param),
                layers * timing.paramPcieBytes, 1.0)
        << policy.toString();
    EXPECT_NEAR(exec.ledger().bytes(runtime::Traffic::Kv),
                layers * timing.kvPcieBytes, 1.0)
        << policy.toString();
    EXPECT_NEAR(exec.ledger().bytes(runtime::Traffic::Activation),
                layers * timing.actPcieBytes, 1.0)
        << policy.toString();
}

TEST_P(RuntimeVsModelTest, DecodeBytesMatchAnalyticalModel)
{
    const Policy policy = Policy::fromMask(GetParam());
    auto exec = makeExecutor(policy);
    const std::int64_t batch = 2, l_in = 8;
    runtime::KvCache cache(m, batch, 32);
    const runtime::ForwardFeed feed{&cache, prefill(exec, cache, l_in)};
    exec.resetStats();
    exec.forward({&feed, 1});

    core::CostModel cm(sys, m, {});
    const auto timing = cm.layerTiming(
        {model::Stage::Decode, batch, l_in + 1}, policy);
    const double layers = static_cast<double>(m.numLayers);

    EXPECT_NEAR(exec.ledger().totalBytes(),
                layers * timing.pcieBytes(), 1.0)
        << policy.toString();
}

TEST_P(RuntimeVsModelTest, BusyTimesMatchComputeModel)
{
    // The executor accrues device time through the same roofline
    // descriptors; per-stage totals must match layer-timing sums
    // (the cost model adds memory-tier splits the executor's simpler
    // accrual approximates, so allow a modest tolerance).
    const Policy policy = Policy::fromMask(GetParam());
    auto exec = makeExecutor(policy);
    const std::int64_t batch = 2, l_in = 8;
    exec.generate(prompts(batch, l_in), 1);

    core::CostModel cm(sys, m, {});
    core::CostModelOptions serial_opts;
    serial_opts.overlap = false;
    cm.setOptions(serial_opts);
    const auto timing = cm.layerTiming(
        {model::Stage::Prefill, batch, l_in}, policy);
    const double layers = static_cast<double>(m.numLayers);

    const double cpu_expected = layers * timing.cpuTime;
    const double gpu_expected = layers * timing.gpuTime;
    if (cpu_expected > 0) {
        EXPECT_NEAR(exec.cpuDevice().busyTime(), cpu_expected,
                    0.15 * cpu_expected)
            << policy.toString();
    } else {
        EXPECT_DOUBLE_EQ(exec.cpuDevice().busyTime(), 0.0);
    }
    if (gpu_expected > 0) {
        EXPECT_NEAR(exec.gpuDevice().busyTime(), gpu_expected,
                    0.15 * gpu_expected)
            << policy.toString();
    } else {
        EXPECT_DOUBLE_EQ(exec.gpuDevice().busyTime(), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, RuntimeVsModelTest,
    ::testing::Values(0b000000u,  // full GPU
                      0b111111u,  // full CPU
                      0b000110u,  // attention on CPU
                      0b111001u, 0b010101u, 0b100110u));

TEST_F(RuntimeVsModelTest, ResidencyInterpolatesBetweenExtremes)
{
    auto streamed = makeExecutor(Policy::fullGpu(), 0);
    auto half = makeExecutor(Policy::fullGpu(), 2);
    auto full = makeExecutor(Policy::fullGpu(), 4);
    streamed.generate(prompts(2, 8), 1);
    half.generate(prompts(2, 8), 1);
    full.generate(prompts(2, 8), 1);
    const double s = streamed.ledger().bytes(runtime::Traffic::Param);
    const double h = half.ledger().bytes(runtime::Traffic::Param);
    const double f = full.ledger().bytes(runtime::Traffic::Param);
    EXPECT_DOUBLE_EQ(f, 0.0);
    EXPECT_NEAR(h, s / 2.0, 1.0);
}

} // namespace
