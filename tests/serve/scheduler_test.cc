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
    serve::SchedulerState state;

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
        state.queue.push_back(requests.size() - 1);
        return requests.size() - 1;
    }

    IterationPlan
    plan(double now = 0)
    {
        return scheduler.next(now, state, requests);
    }
};

/**
 * Admit the whole queue and finish every prefill, as the engine would
 * once the passes complete: the requests sit in the active pool,
 * decoding.
 */
void
startDecoding(Harness &h)
{
    const IterationPlan admitted = h.plan();
    ASSERT_EQ(admitted.admit, h.state.queue);
    h.state.queue.clear();
    for (std::size_t index : admitted.admit) {
        Request &request = h.requests[index];
        request.state = serve::RequestState::Decoding;
        request.prefilled = request.prefillTarget;
        request.generated = 1;
        h.state.active.push_back(index);
    }
}

/** Move active @p index's KV to the swap pool, as a committed
 *  swap-out does; @p drained says whether its transfer finished. */
void
parkSwapped(Harness &h, std::size_t index, bool drained)
{
    std::erase(h.state.active, index);
    Request &request = h.requests[index];
    h.admission.swapOut(request);
    request.state = serve::RequestState::Swapped;
    request.swapReady = drained;
    h.state.swapped.push_back(index);
}

/** Discard active @p index's KV for a recompute, as a committed
 *  eviction does. */
void
parkPreempted(Harness &h, std::size_t index)
{
    std::erase(h.state.active, index);
    Request &request = h.requests[index];
    h.admission.release(request);
    request.state = serve::RequestState::Preempted;
    request.prefillTarget = request.context();
    request.prefilled = 0;
    h.state.preempted.push_back(index);
}

serve::Config
preemptiveConfig()
{
    serve::Config cfg;
    cfg.policy = serve::SchedulerPolicy::Preemptive;
    cfg.maxBatch = 8;
    return cfg;
}

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
    h.state.queue.clear();

    // Two members finish; the survivor still pays for batch 3, and
    // new arrivals may not join the cohort mid-flight.
    h.state.active = {2};
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
        h.state.queue.clear();
        h.state.active = admitted.admit;
        for (std::size_t index : h.state.active) {
            h.requests[index].prefilled = h.requests[index].prefillTarget;
            h.requests[index].generated = 1;
        }
        const auto decoding = h.plan();
        ASSERT_EQ(decoding.decode.size(), 3u);
        EXPECT_EQ(decoding.specDrafts,
                  std::vector<std::int64_t>(decoding.decode.size(), 0));
    }
}

// --- Victim re-entry (preemptive policy) -----------------------------

TEST(SchedulerTest, UndrainedSwapOutIsNotSwappedIn)
{
    Harness h(preemptiveConfig());
    h.enqueue(256, 64);
    h.enqueue(256, 64);
    startDecoding(h);
    ASSERT_EQ(h.state.active.size(), 2u);
    parkSwapped(h, 0, /*drained=*/false);
    parkSwapped(h, 1, /*drained=*/true);

    // Only the drained swap-out returns, though both fit.
    const IterationPlan plan = h.plan();
    EXPECT_EQ(plan.swapIn, std::vector<std::size_t>{1});
    EXPECT_DOUBLE_EQ(h.requests[0].kvReservedBytes, 0.0);
    EXPECT_GT(h.requests[0].kvSwappedBytes, 0.0);
}

TEST(SchedulerTest, AnyParkedVictimBlocksFreshAdmission)
{
    for (const bool swapped : {false, true}) {
        for (const bool drained : {false, true}) {
            if (!swapped && drained)
                continue;
            SCOPED_TRACE(testing::Message() << "swapped " << swapped
                                            << " drained " << drained);
            Harness h(preemptiveConfig());
            h.enqueue(256, 64);
            startDecoding(h);
            if (swapped)
                parkSwapped(h, 0, drained);
            else
                parkPreempted(h, 0);

            // A fresh arrival that fits waits behind the victim, even
            // one whose swap-out is still draining.
            h.enqueue(32, 8);
            const IterationPlan plan = h.plan();
            EXPECT_TRUE(plan.admit.empty());
            EXPECT_EQ(plan.swapIn.size(), swapped && drained ? 1u : 0u);
            EXPECT_EQ(plan.resume.size(), swapped ? 0u : 1u);
        }
    }
}

TEST(SchedulerTest, PreemptingRoundAdmitsNobodyBack)
{
    serve::Config cfg = preemptiveConfig();
    cfg.kvBudgetCapBytes = 2.0 * 1024 * 1024 * 1024;
    Harness h(cfg);
    const auto tokens = static_cast<std::int64_t>(
        h.admission.kvBudgetBytes() / h.m.kvBytesPerToken());
    // Two decoding requests plus a preempted and a drained swapped
    // victim; then the budget fills to the last token, so this round's
    // decode growth must preempt. Its victim, the 512-token decoder
    // admitted last, frees far more than either parked request needs
    // to come back.
    h.enqueue(64, 16);
    h.enqueue(512, 16);
    h.enqueue(16, 4);
    h.enqueue(16, 4);
    startDecoding(h);
    ASSERT_EQ(h.state.active.size(), 4u);
    parkPreempted(h, 2);
    parkSwapped(h, 3, /*drained=*/true);
    h.enqueue(16, 4);
    Request hog;
    hog.lIn = tokens - static_cast<std::int64_t>(
                           h.admission.reservedBytes() /
                           h.m.kvBytesPerToken());
    hog.lOut = 0;
    h.admission.reserve(hog);

    const IterationPlan plan = h.plan();
    EXPECT_EQ(plan.swapOut.size() + plan.evict.size(), 1u);
    EXPECT_TRUE(plan.swapIn.empty());
    EXPECT_TRUE(plan.resume.empty());
    EXPECT_TRUE(plan.admit.empty());
}

} // namespace
