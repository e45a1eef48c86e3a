/**
 * @file
 * Differential-testing harness: analytical-only vs runtime-backed
 * serving runs.
 *
 * Each scenario serves one randomized request stream twice through the
 * same ServingEngine — once purely analytically, once with a
 * serve::RuntimeBackend executing every committed iteration plan on
 * the functional runtime — and asserts:
 *
 *  - identical scheduling decisions, timings, and metrics (the backend
 *    must be passive);
 *  - engine and runtime KV byte accounting in lockstep (the backend
 *    LIA_ASSERTs per-iteration equality internally; the harness checks
 *    the drained account and the executed-work counters);
 *  - token continuity: greedy outputs of preempted requests are
 *    bit-identical to an uninterrupted single-sequence generation;
 *  - no KV leaks at drain.
 *
 * Scenarios run a miniature OPT model (microsecond forwards), with
 * bf16 or int8 weights, over byte budgets small enough that
 * preemption, both victim exits, and chunked prefill all genuinely
 * occur. The scenario count follows
 * LIA_DIFFERENTIAL_SCENARIOS (nightly CI raises it).
 */

#ifndef LIA_TESTS_SUPPORT_DIFFERENTIAL_HH
#define LIA_TESTS_SUPPORT_DIFFERENTIAL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>

#include "hw/system.hh"
#include "model/config.hh"
#include "serve/cost_cache.hh"
#include "serve/engine.hh"

namespace lia {
namespace test {

/** Machinery exercised across a differential sweep. */
struct DifferentialOutcome
{
    std::size_t scenarios = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t recomputes = 0;
    std::uint64_t swapOuts = 0;
    std::uint64_t swapIns = 0;
    std::uint64_t prefillChunks = 0;
    std::uint64_t rejectedCapacity = 0;
    std::uint64_t prefixHits = 0;
    std::uint64_t prefixInserts = 0;
    std::uint64_t prefixReclaims = 0;  //!< node evictions + demotions

    // --- Speculative decoding -----------------------------------------
    std::uint64_t specSteps = 0;      //!< draft+verify rounds executed
    std::uint64_t specDrafted = 0;    //!< draft tokens proposed
    std::uint64_t specAccepted = 0;   //!< drafts the verify kept
    /** Finished requests that both speculated and were preempted
     *  (evicted or swapped) mid-stream — the draft-cache rebuild path. */
    std::size_t specPreemptedRequests = 0;

    /** Finished requests whose greedy outputs were compared against an
     *  uninterrupted reference generation... */
    std::size_t continuityChecked = 0;
    /** ...of which this many had actually been preempted. */
    std::size_t preemptedContinuityChecked = 0;

    // --- The int8-weight scenarios' share of the above ----------------
    std::size_t int8Scenarios = 0;
    std::uint64_t int8Preemptions = 0;
    std::size_t int8PreemptedContinuityChecked = 0;
};

/** The differential deployment (tiny CPU/GPU/CXL system). */
const hw::SystemConfig &tinySystem(bool cxl);

/**
 * The served miniature model (shared by engine and runtime); with
 * @p int8 the same model int8-priced, which the runtime backend
 * executes on the int8 packed kernels.
 */
const model::ModelConfig &tinyServedModel(bool int8 = false);

/** Shared calibrated cost cache over (tinySystem, tinyServedModel). */
std::shared_ptr<const serve::IterationCostCache>
tinySharedCosts(bool cxl, bool int8 = false);

/** Scenario count from @p env_name, or @p fallback when unset. */
std::size_t envScenarioCount(const char *env_name, std::size_t fallback);

/**
 * Draw one randomized serving config sized for the tiny model.
 * @p decode_step_seconds (the cost model's price of a small decode
 * iteration) scales the arrival rate so queueing pressure — and with
 * it preemption — is independent of the analytic model's absolute
 * times.
 */
serve::Config randomTinyConfig(std::mt19937_64 &rng,
                               double decodeStepSeconds);

/**
 * Run @p config on tinyServedModel(@p int8) through both paths and
 * assert the differential properties; accumulates exercised machinery
 * into @p outcome.
 */
void runDifferentialScenario(const serve::Config &config, bool cxl,
                             DifferentialOutcome &outcome,
                             bool int8 = false);

} // namespace test
} // namespace lia

#endif // LIA_TESTS_SUPPORT_DIFFERENTIAL_HH
