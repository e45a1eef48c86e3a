/**
 * @file
 * Continuous-batching online serving engine.
 *
 * Runs the full online-inference scenario of §1/§7.2 on the DES
 * kernel: Poisson arrivals drawn from the Azure-statistics trace, an
 * iteration-level scheduler (static / continuous / SLO-aware /
 * preemptive), KV admission with optional CXL spill, chunked prefill,
 * swap transfers on a DDR<->CXL channel, and every iteration priced
 * by the LIA analytical engine at the batch size it actually ran at.
 * It is the repo's one online-serving model: at maxBatch = 1 it is the
 * single-request M/G/1 server, and above that the batch-size-dependent
 * serving model the paper's Fig. 9 policy map implies.
 */

#ifndef LIA_SERVE_ENGINE_HH
#define LIA_SERVE_ENGINE_HH

#include <memory>
#include <vector>

#include "core/engine.hh"
#include "serve/config.hh"
#include "serve/cost_cache.hh"
#include "serve/metrics.hh"
#include "serve/request.hh"

namespace lia {
namespace serve {

class ExecutionBackend;

/** Outcome of one serving run. */
struct Result
{
    Metrics metrics;

    /** Final lifecycle record of every request (arrival order). */
    std::vector<Request> requests;

    SchedulerPolicy policy = SchedulerPolicy::Continuous;
    bool paramsInCxl = false;     //!< §6 spill active this run
    double kvBudgetBytes = 0;     //!< admission budget used
    std::int64_t plannerCap = 0;  //!< capacity-planner batch cap (0 = none)

    /**
     * KV bytes (DDR + swap pool) still held when the run drained.
     * Zero unless the admission account leaked — regression-tested.
     */
    double kvReservedAtDrain = 0;

    /**
     * Prefix-cache bytes (DDR-resident + CXL-demoted) still held when
     * the run drained. Unlike kvReservedAtDrain this is deliberate
     * retention — cached prefixes outlive their sourcing requests.
     */
    double prefixCacheBytesAtDrain = 0;

    /** Goodput against @p slo (see metrics.hh). */
    double goodputPerSecond(const SloTargets &slo) const
    {
        return serve::goodputPerSecond(requests, slo,
                                       metrics.makespan);
    }

    /** Fraction of completions meeting @p slo. */
    double sloAttainment(const SloTargets &slo) const
    {
        return serve::sloAttainment(requests, slo);
    }
};

/** The serving engine: one (system, model, config) deployment. */
class ServingEngine
{
  public:
    ServingEngine(const hw::SystemConfig &system,
                  const model::ModelConfig &model, Config config);

    /**
     * Like the primary constructor, but pricing iterations through a
     * caller-owned cost cache instead of a private one — deployments
     * (and test harnesses) running many configurations of one
     * (system, model) pair then calibrate the analytical model once.
     * The shared cache must be built over the same system, model, and
     * engine preset this config implies, and must outlive the engine.
     */
    ServingEngine(const hw::SystemConfig &system,
                  const model::ModelConfig &model, Config config,
                  std::shared_ptr<const IterationCostCache> shared);

    /**
     * Simulate the configured request stream to completion. Runs are
     * deterministic: the same Config (seed included) yields
     * bit-identical results, and repeated calls are independent.
     */
    Result run();

    /**
     * Like run(), but additionally executing every committed iteration
     * plan on @p backend (see backend.hh). The backend observes plans,
     * finishes, and the drain; it must not influence scheduling — a
     * backed run returns bit-identical Results to an analytical-only
     * run (nullptr restores plain run() behaviour).
     */
    Result run(ExecutionBackend *backend);

    const core::EngineModel &pricingEngine() const { return engine_; }
    const IterationCostCache &costs() const
    {
        return shared_ ? *shared_ : costs_;
    }
    const Config &config() const { return config_; }

  private:
    hw::SystemConfig system_;
    model::ModelConfig model_;
    Config config_;
    core::EngineModel engine_;
    IterationCostCache costs_;
    std::shared_ptr<const IterationCostCache> shared_;
    std::int64_t plannerCap_ = 0;
};

} // namespace serve
} // namespace lia

#endif // LIA_SERVE_ENGINE_HH
