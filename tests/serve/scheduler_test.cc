/**
 * @file
 * Invariant tests for the iteration-level scheduler: FIFO order with
 * no skip-ahead (hence no starvation), batch and KV caps respected,
 * the static cohort priced at its initial size, and the SLO-aware
 * decode cap derived from the engine's iteration estimates.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "serve/admission.hh"
#include "serve/cost_cache.hh"
#include "serve/scheduler.hh"

namespace {

using namespace lia;
using model::Stage;
using serve::IterationPlan;
using serve::Request;

/** Scheduler plus everything it depends on, on SPR-A100 / OPT-30B. */
struct Harness
{
    hw::SystemConfig sys = hw::withCxl(hw::sprA100());
    model::ModelConfig m = model::opt30b();
    serve::Config cfg;
    core::EngineModel engine;
    serve::IterationCostCache costs;
    serve::AdmissionController admission;
    serve::Scheduler scheduler;

    std::vector<Request> requests;
    std::vector<std::size_t> queue;
    std::vector<std::size_t> active;

    explicit Harness(serve::Config config)
        : cfg(std::move(config)), engine(sys, m),
          costs(engine, cfg.contextBucket),
          admission(sys, m, cfg), scheduler(cfg, costs, admission)
    {
    }

    /** Append a queued request and return its index. */
    std::size_t
    enqueue(std::int64_t l_in, std::int64_t l_out, double arrival = 0)
    {
        Request request;
        request.id = requests.size();
        request.lIn = l_in;
        request.lOut = l_out;
        request.arrival = arrival;
        requests.push_back(request);
        queue.push_back(requests.size() - 1);
        return requests.size() - 1;
    }

    IterationPlan
    plan(double now = 0)
    {
        return scheduler.next(now, queue, active, requests);
    }
};

TEST(SchedulerTest, ContinuousAdmitsTheFifoPrefixUpToMaxBatch)
{
    serve::Config cfg;
    cfg.policy = serve::SchedulerPolicy::Continuous;
    cfg.maxBatch = 4;
    Harness h(cfg);
    for (int i = 0; i < 10; ++i)
        h.enqueue(256, 64);

    const auto plan = h.plan();
    ASSERT_EQ(plan.admit.size(), 4u);
    for (std::size_t i = 0; i < plan.admit.size(); ++i)
        EXPECT_EQ(plan.admit[i], i);  // strict FIFO prefix
    EXPECT_TRUE(plan.shed.empty());
    EXPECT_TRUE(plan.decode.empty());
}

TEST(SchedulerTest, BlockedHeadIsNeverSkipped)
{
    // Starvation-freedom: a large head the budget cannot (currently)
    // hold blocks the line; small requests behind it must not jump
    // ahead, or the head could wait forever under sustained load.
    serve::Config cfg;
    cfg.policy = serve::SchedulerPolicy::Continuous;
    Harness h(cfg);

    // Leave only half the head request's reservation free.
    const std::int64_t head_tokens =
        h.m.maxSeqLen / 2 + h.m.maxSeqLen / 4;
    Request hog;
    hog.lIn = static_cast<std::int64_t>(
                  h.admission.kvBudgetBytes() /
                  h.m.kvBytesPerToken()) -
              head_tokens / 2;
    hog.lOut = 0;
    h.admission.reserve(hog);

    h.enqueue(h.m.maxSeqLen / 2, h.m.maxSeqLen / 4);  // won't fit now
    h.enqueue(32, 8);                                 // would fit

    const auto plan = h.plan();
    EXPECT_TRUE(plan.admit.empty());
    h.admission.release(hog);
    const auto retry = h.plan();
    ASSERT_EQ(retry.admit.size(), 2u);
    EXPECT_EQ(retry.admit[0], 0u);  // head admitted first
}

TEST(SchedulerTest, KvReservationsNeverExceedTheBudget)
{
    serve::Config cfg;
    cfg.policy = serve::SchedulerPolicy::Continuous;
    cfg.maxBatch = 2'000;  // far beyond what the KV budget can hold
    Harness h(cfg);
    for (int i = 0; i < 2'000; ++i)
        h.enqueue(h.m.maxSeqLen / 2, h.m.maxSeqLen / 2);

    const auto plan = h.plan();
    EXPECT_GT(plan.admit.size(), 0u);
    EXPECT_LT(plan.admit.size(), 2'000u);
    EXPECT_LE(h.admission.reservedBytes(),
              h.admission.kvBudgetBytes());
}

TEST(SchedulerTest, StaticCohortIsPricedAtItsInitialSize)
{
    serve::Config cfg;
    cfg.policy = serve::SchedulerPolicy::StaticFifo;
    cfg.maxBatch = 8;
    Harness h(cfg);
    for (int i = 0; i < 3; ++i)
        h.enqueue(256, 64);

    const auto first = h.plan();
    ASSERT_EQ(first.admit.size(), 3u);
    h.queue.clear();

    // Two members finish; the survivor still pays for batch 3, and
    // new arrivals may not join the cohort mid-flight.
    h.active = {2};
    h.requests[2].generated = 10;
    h.enqueue(128, 32);
    const auto later = h.plan();
    EXPECT_EQ(later.decode, std::vector<std::size_t>{2});
    EXPECT_EQ(later.decodePriceBatch, 3);
    EXPECT_TRUE(later.admit.empty());
}

TEST(SchedulerTest, SloDecodeCapStaysWithinTheTbtBudget)
{
    serve::Config cfg;
    cfg.policy = serve::SchedulerPolicy::SloAware;
    cfg.maxBatch = 64;
    cfg.slo.tbt = 0.5;
    Harness h(cfg);

    const std::int64_t context = 512;
    const std::int64_t cap = h.scheduler.decodeBatchCap(context);
    ASSERT_GE(cap, 1);
    ASSERT_LE(cap, cfg.maxBatch);
    const std::int64_t key = h.costs.bucketContext(context);
    if (cap > 1) {
        EXPECT_LE(h.costs.time(Stage::Decode, cap, key), cfg.slo.tbt);
    }
    if (cap < cfg.maxBatch) {
        EXPECT_GT(h.costs.time(Stage::Decode, cap + 1, key),
                  cfg.slo.tbt);
    }
}

TEST(SchedulerTest, ImpossibleTbtStillAllowsALoneRequest)
{
    serve::Config cfg;
    cfg.policy = serve::SchedulerPolicy::SloAware;
    cfg.slo.tbt = 1e-9;  // nothing meets this
    Harness h(cfg);
    EXPECT_EQ(h.scheduler.decodeBatchCap(1024), 1);
}

TEST(SchedulerTest, SloAdmissionShedsHopelesslyLateRequests)
{
    serve::Config cfg;
    cfg.policy = serve::SchedulerPolicy::SloAware;
    cfg.slo.ttft = 20.0;
    Harness h(cfg);
    h.enqueue(256, 64, /*arrival=*/0.0);  // has waited 1000 s
    h.enqueue(256, 64, /*arrival=*/999.0);

    const auto plan = h.plan(/*now=*/1000.0);
    ASSERT_EQ(plan.shed.size(), 1u);
    EXPECT_EQ(plan.shed[0], 0u);
    ASSERT_EQ(plan.admit.size(), 1u);
    EXPECT_EQ(plan.admit[0], 1u);
}

TEST(SchedulerTest, ContinuousNeverShedsAndNeverCaps)
{
    serve::Config cfg;
    cfg.policy = serve::SchedulerPolicy::Continuous;
    cfg.slo.ttft = 20.0;  // set but must be ignored
    cfg.slo.tbt = 0.5;
    Harness h(cfg);
    h.enqueue(256, 64, 0.0);
    const auto plan = h.plan(/*now=*/1000.0);
    EXPECT_TRUE(plan.shed.empty());
    EXPECT_EQ(plan.admit.size(), 1u);
    EXPECT_EQ(plan.batchCap, cfg.maxBatch);
}

/**
 * Every decode entry is a speculative step and a plain decode is its
 * k = 0 case, so with speculation off every policy's plans carry one
 * zero draft count per decode entry.
 */
TEST(SchedulerTest, SpecOffPlansCarryOneZeroDraftCountPerDecode)
{
    for (const auto policy : {serve::SchedulerPolicy::StaticFifo,
                              serve::SchedulerPolicy::Continuous,
                              serve::SchedulerPolicy::SloAware,
                              serve::SchedulerPolicy::Preemptive}) {
        SCOPED_TRACE(testing::Message()
                     << "policy " << static_cast<int>(policy));
        serve::Config cfg;
        cfg.policy = policy;
        cfg.maxBatch = 8;
        ASSERT_FALSE(cfg.spec.enabled);
        Harness h(cfg);
        for (int i = 0; i < 3; ++i)
            h.enqueue(256, 64);
        const auto admitted = h.plan();
        ASSERT_EQ(admitted.admit.size(), 3u);
        EXPECT_EQ(admitted.specDrafts.size(), admitted.decode.size());

        // The prompts finish their prefill and each has emitted its
        // first token: the next plan decodes all three.
        h.queue.clear();
        h.active = admitted.admit;
        for (std::size_t index : h.active) {
            h.requests[index].prefilled = h.requests[index].prefillTarget;
            h.requests[index].generated = 1;
        }
        const auto decoding = h.plan();
        ASSERT_EQ(decoding.decode.size(), 3u);
        EXPECT_EQ(decoding.specDrafts,
                  std::vector<std::int64_t>(decoding.decode.size(), 0));
    }
}

} // namespace
