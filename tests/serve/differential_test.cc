/**
 * @file
 * Differential test: analytical-only vs runtime-backed serving.
 *
 * Runs randomized request streams through the serving engine twice —
 * once purely analytically, once with a RuntimeBackend executing every
 * committed iteration plan on the functional runtime stack — and
 * asserts the two paths agree (see tests/support/differential.hh for
 * the full property list). The per-iteration KV-lockstep invariants
 * are LIA_ASSERT-enforced inside the backend, so any divergence aborts
 * the run at the first bad iteration with the offending request named.
 *
 * Defaults to 500+ scenarios, every third one on int8 weights (the
 * runtime then executes the int8 packed kernels);
 * LIA_DIFFERENTIAL_SCENARIOS scales the sweep (the nightly CI job
 * raises it).
 */

#include <gtest/gtest.h>

#include <random>

#include "serve/config.hh"
#include "support/differential.hh"

namespace {

using namespace lia;
using serve::SchedulerPolicy;

/** Every third scenario serves the int8-weight model; the share is
 *  drawn from the index, so the random config stream is unchanged. */
bool
int8Scenario(std::size_t s)
{
    return s % 3 == 0;
}

constexpr SchedulerPolicy kPolicies[] = {
    SchedulerPolicy::StaticFifo,
    SchedulerPolicy::Continuous,
    SchedulerPolicy::SloAware,
    SchedulerPolicy::Preemptive,
};

TEST(DifferentialTest, AnalyticalAndRuntimeBackedPathsAgree)
{
    const std::size_t scenarios =
        test::envScenarioCount("LIA_DIFFERENTIAL_SCENARIOS", 500);
    std::mt19937_64 rng(0xD1FFBEEF);
    test::DifferentialOutcome outcome;

    for (std::size_t s = 0; s < scenarios; ++s) {
        const bool cxl =
            std::uniform_int_distribution<int>(0, 3)(rng) > 0;
        const bool int8 = int8Scenario(s);
        const double step = test::tinySharedCosts(cxl, int8)->time(
            model::Stage::Decode, 4, 64);
        serve::Config cfg = test::randomTinyConfig(rng, step);
        cfg.cxlSpill = cxl;
        // Preemption is the differential surface of interest: run the
        // preemptive policy every other scenario, the rest rotate.
        cfg.policy = s % 2 == 0
                         ? SchedulerPolicy::Preemptive
                         : kPolicies[(s / 2) % 4];
        SCOPED_TRACE(testing::Message()
                     << "scenario " << s << " policy "
                     << serve::toString(cfg.policy) << " seed "
                     << cfg.seed << " cap " << cfg.kvBudgetCapBytes
                     << " chunk " << cfg.prefillChunkTokens
                     << " maxContext " << cfg.maxContext << " rate "
                     << cfg.arrivalRatePerSecond << " cxl " << cxl
                     << " int8 " << int8);
        test::runDifferentialScenario(cfg, cxl, outcome, int8);
        if (::testing::Test::HasFailure())
            FAIL() << "differential divergence after " << s + 1
                   << " scenarios";
    }

    RecordProperty("scenarios", static_cast<int>(outcome.scenarios));
    EXPECT_GE(outcome.scenarios, scenarios);
}

/**
 * The sweep must exercise the machinery it claims to verify: across
 * the default scenario set both victim exits fire, swapped caches come
 * back, prompts chunk, capacity rejects, and preempted completions —
 * int8-weight ones included — are continuity-checked against
 * uninterrupted references.
 */
TEST(DifferentialTest, SweepExercisesPreemptionAndContinuityChecks)
{
    const std::size_t scenarios = test::envScenarioCount(
        "LIA_DIFFERENTIAL_SCENARIOS", 500);
    std::mt19937_64 rng(0xD1FFBEEF);
    test::DifferentialOutcome outcome;

    for (std::size_t s = 0; s < scenarios && s < 200; ++s) {
        const bool cxl =
            std::uniform_int_distribution<int>(0, 3)(rng) > 0;
        const bool int8 = int8Scenario(s);
        const double step = test::tinySharedCosts(cxl, int8)->time(
            model::Stage::Decode, 4, 64);
        serve::Config cfg = test::randomTinyConfig(rng, step);
        cfg.cxlSpill = cxl;
        cfg.policy = SchedulerPolicy::Preemptive;
        SCOPED_TRACE(testing::Message() << "scenario " << s << " seed "
                                        << cfg.seed << " int8 " << int8);
        test::runDifferentialScenario(cfg, cxl, outcome, int8);
    }

    EXPECT_GT(outcome.preemptions, 0u);
    EXPECT_GT(outcome.recomputes, 0u);
    EXPECT_GT(outcome.swapOuts, 0u);
    EXPECT_GT(outcome.swapIns, 0u);
    EXPECT_GT(outcome.prefillChunks, 0u);
    EXPECT_GT(outcome.rejectedCapacity, 0u);
    EXPECT_GT(outcome.continuityChecked, 0u);
    EXPECT_GT(outcome.preemptedContinuityChecked, 0u);
    // Prefix caching rides the same sweep: Zipfian pools make shared
    // prefixes, so hits, inserts, and reclaim all genuinely fire (and
    // every hit was digest-verified inside the scenario runner).
    EXPECT_GT(outcome.prefixHits, 0u);
    EXPECT_GT(outcome.prefixInserts, 0u);
    EXPECT_GT(outcome.prefixReclaims, 0u);
    // Speculative decoding rides the sweep too: draft+verify rounds
    // actually execute on the runtime, some drafts get rejected (the
    // rollback path runs), and at least one request both speculated
    // and was preempted mid-stream (the draft-cache rebuild path).
    EXPECT_GT(outcome.specSteps, 0u);
    EXPECT_GT(outcome.specDrafted, outcome.specAccepted);
    EXPECT_GT(outcome.specPreemptedRequests, 0u);
    // The int8 share preempts and is continuity-checked as well: the
    // backend's int8 path keeps the same lockstep and token streams.
    EXPECT_GT(outcome.int8Scenarios, 0u);
    EXPECT_GT(outcome.int8Preemptions, 0u);
    EXPECT_GT(outcome.int8PreemptedContinuityChecked, 0u);
}

} // namespace
