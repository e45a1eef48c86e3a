/**
 * @file
 * One serving engine's per-run state, bound to a caller-owned clock.
 *
 * EngineInstance is the continuous-batching engine of engine.cc split
 * away from the global plumbing: it owns the request pools, the
 * scheduler, the admission account, and the swap channel of exactly
 * one engine, but advances on an *external* sim::EventQueue and emits
 * into a caller-chosen tracks::Namespace. ServingEngine::run() wraps
 * one instance around a private queue (the single-engine behaviour is
 * bit-identical to the pre-split engine); cluster::ClusterRouter
 * binds N instances to one shared queue so a whole replica fleet
 * advances on a single DES clock.
 *
 * Requests enter through submit() at the current simulated time —
 * there is no pre-drawn arrival schedule here; whoever owns the clock
 * owns the arrival process.
 */

#ifndef LIA_SERVE_INSTANCE_HH
#define LIA_SERVE_INSTANCE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/admission.hh"
#include "serve/config.hh"
#include "serve/cost_cache.hh"
#include "serve/engine.hh"
#include "serve/metrics.hh"
#include "serve/request.hh"
#include "serve/scheduler.hh"
#include "serve/tracks.hh"
#include "sim/event_queue.hh"
#include "sim/transfer.hh"

namespace lia {
namespace serve {

class ExecutionBackend;

/** The core::EngineConfig the serving layer prices iterations with
 *  (execution-aware objective; §6 memory policy when @p config spills
 *  and the system has a CXL pool; the served model's draft companion
 *  wired in so speculative iterations price draft + verify). Shared
 *  by ServingEngine and the cluster's shard-group pricing so both
 *  price identically. */
core::EngineConfig pricingEngineConfig(const hw::SystemConfig &system,
                                       const model::ModelConfig &model,
                                       const Config &config);

/**
 * The SLO-aware scheduler's static batch cap from the capacity
 * planner: the largest batch whose whole-run latency at the trace's
 * typical shape meets Config::slo.e2e on @p system. 0 (no cap) unless
 * the policy is SloAware with an end-to-end target and some batch is
 * feasible. @p config's maxContext must already be clamped to the
 * model's window. Shared by ServingEngine and the cluster router.
 */
std::int64_t plannerBatchCap(const hw::SystemConfig &system,
                             const model::ModelConfig &model,
                             const Config &config);

/** One engine advancing on a caller-owned DES clock. */
class EngineInstance
{
  public:
    /**
     * @param system  hardware the engine serves on (for a W-way shard
     *                group, the §8 pooled platform)
     * @param model   served model
     * @param config  engine configuration (copied; Config::sink — if
     *                any — must outlive the instance)
     * @param costs   iteration pricing; must outlive the instance
     * @param events  shared simulation clock; must outlive the instance
     * @param ns      track namespace for trace emission
     */
    EngineInstance(const hw::SystemConfig &system,
                   const model::ModelConfig &model, Config config,
                   const IterationCostCache &costs,
                   sim::EventQueue &events,
                   tracks::Namespace ns = {});

    EngineInstance(const EngineInstance &) = delete;
    EngineInstance &operator=(const EngineInstance &) = delete;

    /** Optional plan executor; never influences scheduling. */
    void setBackend(ExecutionBackend *backend) { backend_ = backend; }

    /** Static batch cap from the capacity planner (0 disables). */
    void setPlannerCap(std::int64_t cap);

    /**
     * Submit one request arriving *now* (the queue's current time).
     * Returns the instance-local request id. The request is rejected
     * immediately if it can never fit the KV budget; otherwise it
     * queues and the engine kicks an iteration if idle. A request in
     * a prompt-sharing pool (@p pool_id >= 0) shares its first
     * @p shared_tokens prompt tokens with every other member of the
     * pool (see serve::synthesizePrompt).
     */
    std::size_t submit(std::int64_t l_in, std::int64_t l_out,
                       std::int64_t pool_id = -1,
                       std::int64_t shared_tokens = 0);

    // --- Live-state accessors (router signals) -----------------------

    /** Requests submitted so far. */
    std::size_t submitted() const { return requests_.size(); }

    /** Admitted, unfinished requests (running batch). */
    std::size_t activeCount() const { return pools_.active.size(); }

    /** Submitted requests not yet in a terminal state. */
    std::size_t outstanding() const;

    /** Whether every submitted request reached a terminal state. */
    bool drained() const { return outstanding() == 0; }

    /**
     * KV pressure signal in [0, ~]: bytes reserved plus the full
     * KV demand of everything still waiting, over the budget. The
     * least-KV-loaded router minimises this — it sees load that has
     * arrived but not yet been admitted, which reservedBytes() alone
     * misses.
     */
    double kvLoad() const;

    /**
     * Modeled seconds until a fresh arrival's prefill could start:
     * the prefill backlog of everything already waiting plus one
     * decode iteration of the running batch, stretched by KV-budget
     * pressure (admission stalls when the account is nearly full).
     * Deterministic, cheap (memoised pricing), and monotone in load —
     * the TTFT-aware router minimises it.
     */
    double estimatedQueueDelay() const;

    const AdmissionController &admission() const { return admission_; }
    const Metrics &metrics() const { return metrics_; }
    const Config &config() const { return config_; }

    /**
     * Close out the run: metrics (makespan = the clock's current
     * time), final request records, and the drain-balance account.
     * Call once, after the shared queue drained; the instance must
     * not be used afterwards.
     */
    Result finalize();

  private:
    /** The estimates an iteration is priced at (null when it has no
     *  chunks or no decodes) and its modelled duration. */
    struct IterationPrice
    {
        const core::IterationEstimate *chunk = nullptr;
        const core::IterationEstimate *decode = nullptr;
        double duration = 0;
    };

    void transition(std::size_t index, RequestState state,
                    const char *span, double now);
    void prunePools();
    void tokenEmitted(Request &request, double now);
    void checkStateExclusivity() const;

    // --- Iteration stages, in startIteration() order -----------------
    void startIteration();
    IterationPlan planIteration(double now);
    void commit(const IterationPlan &plan, double now);

    /**
     * Run the committed plan on the backend (all request pools and the
     * admission account reflect it; no progress counter has advanced),
     * then resolve every decode entry, a k = 0 entry to 0 accepted
     * drafts. For a speculative entry ask the backend how many drafts
     * its verify accepted (or fall back to the acceptance oracle),
     * fill IterationPlan::specAccepted, settle the worst-case
     * reservation back to the verified token count, and account the
     * per-request / run metrics.
     */
    void execute(IterationPlan &plan);
    IterationPrice priceIteration(const IterationPlan &plan) const;
    void record(const IterationPlan &plan, double now, std::size_t depth,
                const IterationPrice &price);
    void emitIteration(const IterationPlan &plan, double now,
                       std::size_t depth, const IterationPrice &price);
    void swapInArrived(std::size_t index);
    void completeIteration(const IterationPlan &plan);
    void finish(std::size_t index, double now);
    void applyPrefixPlan(const IterationPlan &plan);

    Config config_;
    const IterationCostCache &costs_;
    sim::EventQueue &events_;
    tracks::Namespace ns_;
    AdmissionController admission_;
    Scheduler scheduler_;
    sim::TransferChannel swapChannel_;

    /** Cross-request prefix cache; null unless config_.prefix.enabled. */
    std::unique_ptr<PrefixCache> prefixCache_;

    /** Requests whose prefill pass completed since the last iteration
     *  started; their prompt prefixes insert into the cache at the
     *  next startIteration(), before the scheduler looks up hits. */
    std::vector<std::size_t> pendingInserts_;

    std::vector<Request> requests_;
    SchedulerState pools_;  //!< read in place by the scheduler
    bool inFlight_ = false;
    Metrics metrics_;

    ExecutionBackend *backend_ = nullptr;

    /** Config::sink, cached; null costs nothing. */
    obs::EventSink *sink_ = nullptr;

    /** Config::sloMonitor, cached; null costs nothing. */
    SloMonitor *monitor_ = nullptr;
};

} // namespace serve
} // namespace lia

#endif // LIA_SERVE_INSTANCE_HH
