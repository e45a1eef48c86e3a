/**
 * @file
 * Integration: the continuous-batching claims the serving subsystem
 * was built to demonstrate. On an offered-load sweep of the mixed
 * online trace, iteration-level batching must strictly dominate the
 * static FIFO baseline (lower p95 response, at least equal token
 * throughput) until its own saturation point, sustain at least twice
 * the static policy's arrival rate at equal p95 latency, and the
 * SLO-aware variant must keep p95 TTFT within target at overloads
 * where unconstrained continuous batching blows through it. Capped at
 * batch 1 the engine must also be the M/G/1 queue of textbook theory.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/stats.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "serve/engine.hh"

namespace {

using namespace lia;
using serve::SchedulerPolicy;

constexpr double kRespSlo = 120.0;
constexpr double kTtftSlo = 20.0;

serve::Result
runAt(double per_minute, SchedulerPolicy policy,
      std::size_t requests = 250)
{
    serve::Config cfg;
    cfg.arrivalRatePerSecond = per_minute / 60.0;
    cfg.requests = requests;
    cfg.seed = 1;
    cfg.policy = policy;
    cfg.maxBatch = 64;
    cfg.slo.ttft = kTtftSlo;
    cfg.slo.tbt = 0.5;
    serve::ServingEngine engine(hw::withCxl(hw::sprA100()),
                                model::opt30b(), cfg);
    return engine.run();
}

TEST(ContinuousBatchingTest, DominatesStaticUntilSaturation)
{
    // Same arrival sequence (same seed) policy-for-policy: continuous
    // batching must beat static FIFO on tail latency at every offered
    // load, and on throughput once there is queueing to exploit.
    for (double rate : {2.0, 4.0, 6.0, 8.0, 14.0}) {
        const auto fixed = runAt(rate, SchedulerPolicy::StaticFifo);
        const auto cont = runAt(rate, SchedulerPolicy::Continuous);
        EXPECT_LT(cont.metrics.responseTime.p95(),
                  fixed.metrics.responseTime.p95())
            << "rate " << rate << "/min";
        EXPECT_LT(cont.metrics.ttft.p95(), fixed.metrics.ttft.p95())
            << "rate " << rate << "/min";
        if (rate >= 4.0) {
            EXPECT_GT(cont.metrics.tokensPerSecond(),
                      fixed.metrics.tokensPerSecond())
                << "rate " << rate << "/min";
        }
    }
}

TEST(ContinuousBatchingTest, SustainsAtLeastTwiceTheStaticRate)
{
    // Sustainable rate: highest offered load whose p95 response stays
    // within a common bound — "equal p95 latency" for both policies.
    auto sustainable = [](SchedulerPolicy policy) {
        double best = 0;
        for (double rate : {1.0, 2.0, 3.0, 4.0, 6.0, 8.0}) {
            const auto result = runAt(rate, policy);
            if (result.metrics.responseTime.p95() <= kRespSlo)
                best = std::max(best, rate);
        }
        return best;
    };
    const double fixed = sustainable(SchedulerPolicy::StaticFifo);
    const double cont = sustainable(SchedulerPolicy::Continuous);
    EXPECT_GE(fixed, 1.0);  // the baseline can serve *something*
    EXPECT_GE(cont, 2.0 * fixed)
        << "continuous " << cont << "/min vs static " << fixed
        << "/min";
}

TEST(ContinuousBatchingTest, SloAwareKeepsTtftWhereContinuousFails)
{
    // At heavy overload the unconstrained batcher queues everyone and
    // p95 TTFT explodes; the SLO-aware policy sheds instead, keeping
    // admitted requests inside the target and earning more goodput.
    const double rate = 18.0;
    const auto cont = runAt(rate, SchedulerPolicy::Continuous);
    const auto slo = runAt(rate, SchedulerPolicy::SloAware);

    ASSERT_GT(cont.metrics.ttft.p95(), kTtftSlo)
        << "sweep point not overloaded enough to exercise shedding";
    EXPECT_LE(slo.metrics.ttft.p95(), kTtftSlo);
    EXPECT_GT(slo.metrics.shedSlo, 0u);

    serve::SloTargets slo_targets;
    slo_targets.ttft = kTtftSlo;
    slo_targets.tbt = 0.5;
    EXPECT_GT(slo.goodputPerSecond(slo_targets),
              cont.goodputPerSecond(slo_targets));
}

TEST(ContinuousBatchingTest, StaticMatchesContinuousWhenBatchIsOne)
{
    // With maxBatch = 1 the two disciplines describe the same serial
    // server, so the whole sweep must coincide exactly.
    serve::Config cfg;
    cfg.arrivalRatePerSecond = 2.0 / 60.0;
    cfg.requests = 60;
    cfg.seed = 3;
    cfg.maxBatch = 1;
    const auto sys = hw::withCxl(hw::sprA100());
    const auto m = model::opt30b();

    cfg.policy = SchedulerPolicy::StaticFifo;
    const auto fixed = serve::ServingEngine(sys, m, cfg).run();
    cfg.policy = SchedulerPolicy::Continuous;
    const auto cont = serve::ServingEngine(sys, m, cfg).run();
    EXPECT_DOUBLE_EQ(fixed.metrics.makespan, cont.metrics.makespan);
    EXPECT_DOUBLE_EQ(fixed.metrics.responseTime.mean(),
                     cont.metrics.responseTime.mean());
    EXPECT_EQ(fixed.metrics.iterations, cont.metrics.iterations);
}

TEST(ContinuousBatchingTest, BatchOneQueueWaitMatchesPollaczekKhinchine)
{
    // Capped at batch 1 the engine is one FIFO server fed by Poisson
    // arrivals — an M/G/1 queue — so its mean queue wait must match
    // the Pollaczek–Khinchine mean wait of the run's own service times
    // (response - queue wait). At load ~0.51 and 5000 requests the
    // ratio stays within 0.90–1.13 over seeds 1–30.
    serve::Config cfg;
    cfg.arrivalRatePerSecond = 5.4 / 60.0;
    cfg.requests = 5000;
    cfg.seed = 1;
    cfg.trace = trace::TraceKind::Code;
    cfg.maxBatch = 1;
    cfg.cxlSpill = false;
    const auto result =
        serve::ServingEngine(hw::sprA100(), model::opt30b(), cfg).run();

    SampleStats service;
    for (const auto &r : result.requests) {
        ASSERT_EQ(r.state, serve::RequestState::Finished);
        service.add(r.responseTime() - r.queueWait());
    }
    const double load = cfg.arrivalRatePerSecond * service.mean();
    ASSERT_GT(load, 0.45);
    ASSERT_LT(load, 0.6);
    const double theory =
        pollaczekKhinchineWait(cfg.arrivalRatePerSecond, service);
    EXPECT_NEAR(result.metrics.queueWait.mean() / theory, 1.0, 0.15)
        << "measured " << result.metrics.queueWait.mean() << " s vs "
        << theory << " s";
}

} // namespace
