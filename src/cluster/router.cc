#include "cluster/router.hh"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "base/logging.hh"
#include "base/rng.hh"
#include "cluster/hash_ring.hh"
#include "core/capacity_planner.hh"
#include "hw/catalog.hh"
#include "obs/series.hh"
#include "obs/sink.hh"
#include "serve/instance.hh"
#include "serve/tracks.hh"
#include "sim/arrivals.hh"
#include "sim/event_queue.hh"
#include "trace/azure.hh"

namespace lia {
namespace cluster {

namespace {

/** The fabric a shard group all-reduces over. */
hw::Link
shardFabric(const ClusterConfig &config, const hw::SystemConfig &base)
{
    if (config.fabric)
        return *config.fabric;
    if (base.gpuFabric)
        return *base.gpuFabric;
    return hw::pcie4x16();
}

/** Mean of @p series samples in the window (now - period, now]. */
double
windowMean(const obs::SeriesRegistry::Series &series, double now,
           double period)
{
    double sum = 0;
    std::size_t count = 0;
    for (auto it = series.rbegin(); it != series.rend(); ++it) {
        if (it->seconds <= now - period)
            break;
        sum += it->value;
        ++count;
    }
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

} // namespace

// --- Run-local state --------------------------------------------------

/** One live replica: its engine instance plus the observability
 *  plumbing that must outlive it. */
struct ClusterRouter::Replica
{
    std::size_t index = 0;
    double spawnedAt = 0;
    double retiredAt = -1;
    bool draining = false;
    std::size_t routed = 0;

    /** The autoscaler's signal source: every replica records its own
     *  counter series even when the user attached no sink. */
    std::unique_ptr<obs::SeriesRegistry> registry;

    /** Fan-out to the user's sink; null when none was configured. */
    std::unique_ptr<obs::TeeSink> tee;

    std::unique_ptr<serve::EngineInstance> instance;

    bool active() const { return !draining; }
};

struct ClusterRouter::RunState
{
    sim::EventQueue events;
    std::vector<std::unique_ptr<Replica>> replicas;
    ConsistentHashRing ring;
    ReplicaAutoscaler autoscaler;

    std::size_t submitted = 0;  //!< arrival events fired so far
    std::size_t scaleUps = 0;
    std::size_t scaleDowns = 0;
    std::size_t peakReplicas = 0;

    std::unordered_map<std::uint64_t, std::size_t> lastReplicaOf;
    std::size_t affinityChecked = 0;
    std::size_t affinityHits = 0;

    SampleStats activeReplicaSeries;

    RunState(const AutoscalerConfig &config) : autoscaler(config) {}

    std::size_t activeCount() const
    {
        std::size_t n = 0;
        for (const auto &r : replicas)
            n += r->active() ? 1 : 0;
        return n;
    }

    bool anyOutstanding() const
    {
        for (const auto &r : replicas)
            if (r->instance->outstanding() > 0)
                return true;
        return false;
    }
};

// --- Construction -----------------------------------------------------

ClusterRouter::ClusterRouter(const hw::SystemConfig &system,
                             const model::ModelConfig &model,
                             ClusterConfig config)
    : system_(system), model_(model), config_(std::move(config)),
      tensorParallel_(
          config_.shardWidth > 1
              ? std::make_unique<core::MultiGpuLiaModel>(
                    system, model, config_.shardWidth,
                    shardFabric(config_, system))
              : nullptr),
      engine_(tensorParallel_ ? tensorParallel_->pooledSystem()
                              : system_,
              model_,
              serve::pricingEngineConfig(
                  tensorParallel_ ? tensorParallel_->pooledSystem()
                                  : system_,
                  model_, config_.engine)),
      costs_(engine_, config_.engine.contextBucket,
             tensorParallel_.get())
{
    config_.validate();
    model_.validate();
    config_.engine.maxContext =
        std::min(config_.engine.maxContext, model_.maxSeqLen);
    // The cluster owns the sink plumbing; a sink on the inner engine
    // config would double-emit.
    config_.engine.sink = nullptr;

    // Same SLO-derived batch cap ServingEngine computes, against the
    // platform the replicas actually run on (pooled when sharded).
    if (config_.engine.policy == serve::SchedulerPolicy::SloAware &&
        config_.engine.slo.e2e > 0) {
        const std::int64_t typical_out =
            config_.engine.trace == trace::TraceKind::Code
                ? 32
                : (config_.engine.trace ==
                           trace::TraceKind::Conversation
                       ? 256
                       : 144);
        core::PlannerRequest request;
        request.lOut = std::min<std::int64_t>(
            typical_out, config_.engine.maxContext / 4);
        request.lIn = (config_.engine.maxContext - request.lOut) / 2;
        request.latencySlo = config_.engine.slo.e2e;
        request.maxBatch = config_.engine.maxBatch;
        const auto planned =
            core::CapacityPlanner(engine_.system(), model_)
                .plan(request);
        if (planned.feasible)
            plannerCap_ = planned.best.batch;
    }
}

// --- Replica lifecycle ------------------------------------------------

ClusterRouter::Replica &
ClusterRouter::spawnReplica(RunState &state, double now)
{
    auto replica = std::make_unique<Replica>();
    replica->index = state.replicas.size();
    replica->spawnedAt = now;
    replica->registry = std::make_unique<obs::SeriesRegistry>();

    serve::Config engine_config = config_.engine;
    if (config_.sink) {
        replica->tee = std::make_unique<obs::TeeSink>(
            std::vector<obs::EventSink *>{config_.sink,
                                          replica->registry.get()});
        engine_config.sink = replica->tee.get();
    } else {
        engine_config.sink = replica->registry.get();
    }

    replica->instance = std::make_unique<serve::EngineInstance>(
        engine_.system(), model_, std::move(engine_config), costs_,
        state.events, serve::tracks::replica(replica->index));
    replica->instance->setPlannerCap(plannerCap_);

    state.ring.addNode(replica->index);
    state.replicas.push_back(std::move(replica));
    state.peakReplicas =
        std::max(state.peakReplicas, state.activeCount());
    return *state.replicas.back();
}

// --- Routing ----------------------------------------------------------

std::size_t
ClusterRouter::route(RunState &state, std::uint64_t session)
{
    std::size_t chosen = state.replicas.size();

    switch (config_.routing) {
      case RoutingPolicy::SessionAffinity:
        chosen = state.ring.nodeFor(session);
        break;

      case RoutingPolicy::LeastKvLoaded: {
        double best = std::numeric_limits<double>::infinity();
        for (const auto &r : state.replicas) {
            if (!r->active())
                continue;
            const double load = r->instance->kvLoad();
            if (load < best) {
                best = load;
                chosen = r->index;
            }
        }
        break;
      }

      case RoutingPolicy::TtftAware: {
        double best = std::numeric_limits<double>::infinity();
        for (const auto &r : state.replicas) {
            if (!r->active())
                continue;
            const double delay =
                r->instance->estimatedQueueDelay();
            if (delay < best) {
                best = delay;
                chosen = r->index;
            }
        }
        break;
      }
    }

    LIA_ASSERT(chosen < state.replicas.size(),
               "router found no active replica");
    LIA_ASSERT(state.replicas[chosen]->active(),
               "routed to a draining replica");

    auto seen = state.lastReplicaOf.find(session);
    if (seen != state.lastReplicaOf.end()) {
        ++state.affinityChecked;
        state.affinityHits += seen->second == chosen ? 1 : 0;
        seen->second = chosen;
    } else {
        state.lastReplicaOf.emplace(session, chosen);
    }
    ++state.replicas[chosen]->routed;
    return chosen;
}

// --- Autoscaling ------------------------------------------------------

void
ClusterRouter::autoscalerTick(RunState &state)
{
    const double now = state.events.now();
    const double period = config_.autoscaler.evaluationPeriod;

    // Finish any decommission whose drain completed.
    for (auto &r : state.replicas)
        if (r->draining && r->retiredAt < 0 &&
            r->instance->drained())
            r->retiredAt = now;

    // Fleet signals: mean of each active replica's window-mean of the
    // counters its engine emitted (an idle replica contributes 0).
    AutoscalerSignals signals;
    signals.activeReplicas = state.activeCount();
    if (signals.activeReplicas > 0) {
        double queue = 0, kv = 0;
        for (const auto &r : state.replicas) {
            if (!r->active())
                continue;
            queue += windowMean(r->registry->at("queue_depth"), now,
                                period);
            kv += windowMean(r->registry->at("kv_occupancy"), now,
                             period);
        }
        const double n =
            static_cast<double>(signals.activeReplicas);
        signals.meanQueueDepth = queue / n;
        signals.meanKvOccupancy = kv / n;
    }

    switch (state.autoscaler.evaluate(now, signals)) {
      case ScaleDecision::Hold:
        break;

      case ScaleDecision::Up:
        spawnReplica(state, now);
        ++state.scaleUps;
        break;

      case ScaleDecision::Down: {
        // Drain the active replica with the least outstanding work
        // (cheapest to finish); ties retire the newest.
        Replica *victim = nullptr;
        for (auto &r : state.replicas) {
            if (!r->active())
                continue;
            if (!victim ||
                r->instance->outstanding() <=
                    victim->instance->outstanding())
                victim = r.get();
        }
        LIA_ASSERT(victim, "scale-down with no active replica");
        victim->draining = true;
        state.ring.removeNode(victim->index);
        if (victim->instance->drained())
            victim->retiredAt = now;
        ++state.scaleDowns;
        break;
      }
    }

    state.activeReplicaSeries.add(
        static_cast<double>(state.activeCount()));

    // Keep evaluating while the run still has work; once the stream
    // is fully submitted and served, stop so the queue can drain.
    if (state.submitted < config_.engine.requests ||
        state.anyOutstanding())
        state.events.schedule(now + period,
                              [this, &state]() {
                                  autoscalerTick(state);
                              });
}

// --- The run ----------------------------------------------------------

ClusterResult
ClusterRouter::run()
{
    RunState state(config_.autoscaler);

    for (std::size_t i = 0; i < config_.replicas; ++i)
        spawnReplica(state, 0.0);

    // One shared stream, pre-drawn with the engine's seed convention
    // (arrivals: seed, shapes: seed + 1) plus session ids from
    // seed + 2 — a single-replica cluster therefore serves exactly
    // the workload ServingEngine would.
    sim::PoissonProcess arrivals(config_.engine.arrivalRatePerSecond,
                                 config_.engine.seed);
    trace::AzureTraceGenerator gen(config_.engine.trace,
                                   config_.engine.maxContext,
                                   config_.engine.seed + 1);
    Rng session_rng(config_.engine.seed + 2);
    for (std::size_t i = 0; i < config_.engine.requests; ++i) {
        const double arrival = arrivals.next();
        const trace::Request shape = gen.next();
        const auto session = static_cast<std::uint64_t>(
            session_rng.uniformInt(
                0,
                static_cast<std::int64_t>(config_.sessions) - 1));
        state.events.schedule(
            arrival, [this, &state, shape, session]() {
                ++state.submitted;
                const std::size_t target = route(state, session);
                state.replicas[target]->instance->submit(shape.lIn,
                                                         shape.lOut);
            });
    }

    if (config_.autoscaler.enabled)
        state.events.schedule(
            config_.autoscaler.evaluationPeriod,
            [this, &state]() { autoscalerTick(state); });

    setSimTimeProvider(
        [&state] { return state.events.now(); });
    state.events.run();
    setSimTimeProvider(nullptr);

    // Drain-before-decommission must leave nothing behind: every
    // submitted request reached a terminal state on some replica.
    ClusterResult result;
    result.shardWidth = config_.shardWidth;
    result.makespan = state.events.now();
    result.requestsRouted = state.submitted;
    result.scaleUps = state.scaleUps;
    result.scaleDowns = state.scaleDowns;
    result.peakReplicas = state.peakReplicas;
    result.finalReplicas = state.activeCount();
    result.activeReplicaSeries = std::move(state.activeReplicaSeries);
    result.sessionAffinityHitRate =
        state.affinityChecked > 0
            ? static_cast<double>(state.affinityHits) /
                  static_cast<double>(state.affinityChecked)
            : 0.0;

    LIA_ASSERT(state.submitted == config_.engine.requests,
               "arrival stream did not fully fire");
    std::size_t routed_total = 0, terminal_total = 0;
    for (auto &r : state.replicas) {
        LIA_ASSERT(r->instance->drained(), "replica ", r->index,
                   " stranded ", r->instance->outstanding(),
                   " requests");
        if (r->draining && r->retiredAt < 0)
            r->retiredAt = result.makespan;
        routed_total += r->routed;

        ReplicaReport report;
        report.index = r->index;
        report.spawnedAt = r->spawnedAt;
        report.retiredAt = r->retiredAt;
        report.routed = r->routed;
        report.result = r->instance->finalize();
        LIA_ASSERT(report.result.requests.size() == r->routed,
                   "replica lost requests");
        terminal_total += report.result.metrics.completed +
                          report.result.metrics.rejected();
        result.aggregate.merge(report.result.metrics);
        result.mergedSeries.merge(*r->registry);
        result.replicas.push_back(std::move(report));
    }
    LIA_ASSERT(routed_total == state.submitted,
               "routed != submitted");
    LIA_ASSERT(terminal_total == state.submitted,
               "cluster dropped requests");
    return result;
}

// --- Result helpers ---------------------------------------------------

double
ClusterResult::goodputPerSecond(const serve::SloTargets &slo) const
{
    if (makespan <= 0)
        return 0.0;
    std::size_t good = 0;
    for (const ReplicaReport &replica : replicas)
        for (const serve::Request &request : replica.result.requests)
            good += serve::meetsSlo(request, slo) ? 1 : 0;
    return static_cast<double>(good) / makespan;
}

double
ClusterResult::sloAttainment(const serve::SloTargets &slo) const
{
    std::size_t finished = 0, good = 0;
    for (const ReplicaReport &replica : replicas) {
        for (const serve::Request &request :
             replica.result.requests) {
            if (request.state != serve::RequestState::Finished)
                continue;
            ++finished;
            good += serve::meetsSlo(request, slo) ? 1 : 0;
        }
    }
    return finished > 0 ? static_cast<double>(good) /
                              static_cast<double>(finished)
                        : 0.0;
}

} // namespace cluster
} // namespace lia
