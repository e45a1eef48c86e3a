#include "serve/engine.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "serve/backend.hh"
#include "serve/instance.hh"
#include "sim/arrivals.hh"
#include "sim/event_queue.hh"
#include "trace/azure.hh"
#include "trace/sharing.hh"

namespace lia {
namespace serve {

ServingEngine::ServingEngine(const hw::SystemConfig &system,
                             const model::ModelConfig &model,
                             Config config)
    : ServingEngine(system, model, std::move(config), nullptr)
{
}

ServingEngine::ServingEngine(
    const hw::SystemConfig &system, const model::ModelConfig &model,
    Config config, std::shared_ptr<const IterationCostCache> shared)
    : system_(system), model_(model), config_(std::move(config)),
      engine_(system, model,
              pricingEngineConfig(system, model, config_)),
      costs_(engine_, config_.contextBucket),
      shared_(std::move(shared))
{
    config_.validate();
    model_.validate();
    config_.maxContext =
        std::min(config_.maxContext, model_.maxSeqLen);

    plannerCap_ = plannerBatchCap(system_, model_, config_);
}

Result
ServingEngine::run()
{
    return run(nullptr);
}

Result
ServingEngine::run(ExecutionBackend *backend)
{
    // One instance around a private clock: the standalone engine is
    // the one-replica special case of the shared-queue machinery (the
    // cluster router binds many instances to one queue instead).
    sim::EventQueue events;
    EngineInstance instance(system_, model_, config_, costs(), events);
    instance.setBackend(backend);
    instance.setPlannerCap(plannerCap_);

    // Draw the arrival sequence and request shapes up front, sharing
    // the Poisson helper (and its seed convention) with the cluster
    // router so equal seeds mean equal workloads.
    sim::PoissonProcess arrivals(config_.arrivalRatePerSecond,
                                 config_.seed);
    if (config_.prefix.sharingPools > 0) {
        // Zipfian prompt sharing: same arrival clock and shape stream
        // as the independent path (the pool wrapper draws shapes from
        // the identical generator seed), plus a pool assignment and a
        // shared-prefix length per request.
        trace::ZipfianPromptPools pools(
            config_.trace, config_.maxContext,
            config_.prefix.sharingPools,
            config_.prefix.sharingExponent,
            config_.prefix.sharedFraction,
            config_.prefix.blockTokens, config_.seed + 1);
        for (std::size_t i = 0; i < config_.requests; ++i) {
            const double arrival = arrivals.next();
            const trace::SharedRequest shared = pools.next();
            events.schedule(arrival, [&instance, shared]() {
                instance.submit(shared.shape.lIn, shared.shape.lOut,
                                shared.poolId, shared.sharedTokens);
            });
        }
    } else {
        trace::AzureTraceGenerator gen(config_.trace,
                                       config_.maxContext,
                                       config_.seed + 1);
        for (std::size_t i = 0; i < config_.requests; ++i) {
            const double arrival = arrivals.next();
            const trace::Request shape = gen.next();
            events.schedule(arrival,
                            [&instance, shape]() {
                                instance.submit(shape.lIn, shape.lOut);
                            });
        }
    }
    // While the DES runs, log messages can carry the simulated time
    // (LIA_LOG token "sim"); cleared again once the queue drains.
    setSimTimeProvider([&events] { return events.now(); });
    events.run();
    setSimTimeProvider(nullptr);
    if (backend)
        backend->onDrain();
    return instance.finalize();
}

} // namespace serve
} // namespace lia
