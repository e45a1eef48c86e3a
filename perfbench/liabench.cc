/**
 * @file
 * Repository benchmark program: runs one workload in this process and
 * prints one JSON object of measurements on stdout.
 *
 *   liabench --workload chat-serve|rag-serve|fleet-sim --seed N
 *            --seconds S [--trace 0|1] [--smoke 0|1]
 *            [--trace-out PATH]
 *
 * Only public entry points are driven: serve::ServingEngine::run with a
 * serve::RuntimeBackend behind a timing wrapper (the runtime-backed
 * workloads), and cluster::ClusterRouter::run (the fleet simulator).
 *
 * A run is a sequence of episodes. Episode k builds everything afresh
 * (weights, cost cache, engine or router) from seed (seed, k), serves
 * the workload's request stream once, and then checks its outputs.
 * Episodes repeat until the timed run() calls add up to --seconds, so
 * one run samples several fresh allocations of the same workload and
 * several set-ups. The set-up and the correctness checks are outside
 * the timed phase.
 *
 * With --trace 1 every episode runs twice on identical inputs: once
 * untimed by any profiler, once with the wrapper's spans and the
 * kernel profiler on. The per-layer numbers come from the traced
 * pass; obs.trace_overhead_share compares the two passes.
 *
 * perfbench/run.py builds this program, runs it and turns its output
 * into the benchmark's result line.
 */

#include <cpuid.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/args.hh"
#include "base/stats.hh"
#include "base/thread_pool.hh"
#include "cluster/router.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "obs/chrome_trace.hh"
#include "obs/profiler.hh"
#include "serve/engine.hh"
#include "serve/runtime_backend.hh"

namespace {

using namespace lia;
using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

// --- Workloads -----------------------------------------------------------

enum class Kind { RuntimeServing, FleetSim };

/**
 * Finished requests without a preemption whose greedy streams are
 * compared with the reference generation per episode, in arrival
 * order. Every preempted request is compared as well. A reference
 * generation costs about as much as serving the request again, so the
 * sample stays small.
 */
constexpr std::size_t kReferenceSample = 1;

/**
 * One benchmark workload. Nothing in the program sees its name: the
 * benchmark only picks the model, system and serve::Config, and the
 * engine generates the open-loop Poisson arrivals from the seed the
 * benchmark passes in serve::Config::seed.
 */
struct Workload
{
    std::string name;
    Kind kind = Kind::RuntimeServing;
    hw::SystemConfig system;
    model::ModelConfig model;

    /** Runtime workloads: the engine config (seed set per episode). */
    serve::Config serving;

    /** Fleet workload: the cluster config (seed set per episode). */
    cluster::ClusterConfig fleet;

    /** Modelled-clock SLO behind serve.model.goodput_share. */
    serve::SloTargets slo;
};

/**
 * chat-serve: runtime-backed serving of a decode-heavy chat mix.
 *
 * Conversation traffic (L_out ~ 256) with short prompts on an int8
 * tiny OPT, preemptive policy on SPR-A100 with a CXL pool, and a DDR
 * KV cap tight enough that some requests are preempted (with the CXL
 * pool present the scheduler prices swap-out below recompute). Almost
 * all of its time is m = 1 decode: the int8 GEMV, attention over a
 * growing KV cache, thread-pool dispatch, and the KV copies of
 * swap-out and restore.
 *
 * An episode is 6 requests, so a run holds several episodes and the
 * median episode rate discards one disturbed by other load on the
 * host. Arrivals every ~2.5 ms of modelled time, against ~256 modelled
 * decode steps per request, keep every request of an episode in the
 * batch at once.
 *
 * Loads: runtime (int8 GEMV, attention, KV cache), base (thread pool),
 * serve (scheduler, preemption, runtime backend).
 * Bypasses: prefix cache, fp32 GEMM at m > 1 (prompts are short),
 * cluster.
 */
Workload
chatServe(bool smoke)
{
    Workload w;
    w.name = "chat-serve";
    w.system = hw::withCxl(hw::sprA100());
    w.model = model::quantized(
        model::tinyOpt(smoke ? 64 : 128, 4, 4, 512, 4096),
        model::WeightPrecision::Int8);
    serve::Config &c = w.serving;
    c.trace = trace::TraceKind::Conversation;
    c.requests = smoke ? 4 : 6;
    c.maxContext = smoke ? 128 : 320;
    c.maxBatch = 8;
    c.policy = serve::SchedulerPolicy::Preemptive;
    c.prefillChunkTokens = 64;
    c.admissionWatermark = 0.1;
    // About 60 % of the episode's final KV, so the optimistic
    // admission overcommits and some requests swap out.
    c.kvBudgetCapBytes =
        w.model.kvBytesPerToken() * (smoke ? 160.0 : 1000.0);
    c.arrivalRatePerSecond = smoke ? 2000.0 : 400.0;
    w.slo.ttft = 0.05;
    return w;
}

/**
 * rag-serve: runtime-backed serving of a prefill-heavy retrieval mix.
 *
 * Code traffic (L_out ~ 32) with long prompts, chunked prefill and the
 * prefix cache on with Zipfian sharing over 8 pools, fp32 weights and
 * an ample KV budget (no preemption). Its time is m > 1 fp32 GEMM,
 * O(T^2) attention and reads of cached KV: the same runtime and serve
 * layers as chat-serve, used the opposite way.
 *
 * Loads: runtime (fp32 GEMM, attention), base, serve (chunked prefill,
 * prefix cache, runtime backend). An episode is 8 requests.
 * Bypasses: int8 kernels, preemption and swap, cluster.
 */
Workload
ragServe(bool smoke)
{
    Workload w;
    w.name = "rag-serve";
    w.system = hw::withCxl(hw::sprA100());
    w.model = model::tinyOpt(smoke ? 64 : 128, 4, 4, 1024, 4096);
    serve::Config &c = w.serving;
    c.trace = trace::TraceKind::Code;
    c.requests = smoke ? 6 : 8;
    c.maxContext = smoke ? 256 : 1024;
    c.maxBatch = 8;
    c.policy = serve::SchedulerPolicy::Continuous;
    c.prefillChunkTokens = 128;
    c.prefix.enabled = true;
    c.prefix.sharingPools = 8;
    c.prefix.sharedFraction = 0.75;
    c.arrivalRatePerSecond = smoke ? 2000.0 : 400.0;
    w.slo.ttft = 0.05;
    return w;
}

/**
 * fleet-sim: the analytic cluster DES, no runtime.
 *
 * OPT-30B on SPR-A100 with CXL, 4 replicas behind session-affinity
 * routing, preemptive policy with chunked prefill, prefix cache on,
 * mixed traffic at 0.5 requests per modelled second, which the fleet
 * sustains (modelled TTFT p99 of a few seconds, no rejections). The
 * router draws independent prompts, so the prefix cache inserts and
 * reclaims but never hits. This is how the repository's paper
 * experiments and what-if sweeps run.
 *
 * An episode is 500 requests, about half a second of host time: the
 * simulator's cost per iteration grows with the requests in a run, so
 * many short episodes keep one run's work fixed while giving the
 * median episode rate enough samples.
 *
 * Loads: serve (scheduler, admission, prefix cache), cluster, core
 * (cost model and cost cache), sim and trace.
 * Bypasses: runtime kernels and the thread pool entirely.
 */
Workload
fleetSim(bool smoke)
{
    Workload w;
    w.name = "fleet-sim";
    w.kind = Kind::FleetSim;
    w.system = hw::withCxl(hw::sprA100());
    w.model = model::opt30b();
    cluster::ClusterConfig &f = w.fleet;
    serve::Config &c = f.engine;
    c.trace = trace::TraceKind::Mixed;
    c.requests = smoke ? 100 : 500;
    c.maxBatch = 64;
    c.policy = serve::SchedulerPolicy::Preemptive;
    c.prefillChunkTokens = 256;
    c.prefix.enabled = true;
    c.arrivalRatePerSecond = 0.5;
    f.replicas = 4;
    f.routing = cluster::RoutingPolicy::SessionAffinity;
    f.sessions = 64;
    w.slo.ttft = 10.0;
    return w;
}

Workload
workloadByName(const std::string &name, bool smoke)
{
    if (name == "chat-serve")
        return chatServe(smoke);
    if (name == "rag-serve")
        return ragServe(smoke);
    if (name == "fleet-sim")
        return fleetSim(smoke);
    std::cerr << "liabench: unknown workload \"" << name << "\"\n";
    std::exit(2);
}

/** Engine seed of episode @p k of a run seeded @p seed. */
std::uint64_t
episodeSeed(std::uint64_t seed, std::uint64_t k)
{
    return seed * 1000003ULL + k * 7919ULL + 1;
}

// --- Shape-derived work --------------------------------------------------

/** FLOPs and weight bytes of forwards, computed from tensor shapes. */
struct ShapeWork
{
    double flops = 0;
    double weightBytes = 0;

    /** One forward of @p tokens on @p history cached tokens. */
    void forward(const model::ModelConfig &m, std::int64_t tokens,
                 std::int64_t history)
    {
        const double d = static_cast<double>(m.dModel);
        const double t = static_cast<double>(tokens);
        const double h = static_cast<double>(history);
        const double projParams =
            4.0 * d * d + 2.0 * d * static_cast<double>(m.ffnDim);
        const double layers = static_cast<double>(m.numLayers);
        const double lmHead = d * static_cast<double>(m.vocabSize);
        // Projections, Q.K^T plus S.V over the causal window, and the
        // LM head on the last position only.
        flops += layers * (2.0 * t * projParams +
                           4.0 * t * d * (h + (t + 1.0) / 2.0)) +
                 2.0 * lmHead;
        // int8 projection tiles at 1 B/element, fp32 otherwise; the
        // tied LM head always stays fp32.
        const double bpe = m.weightBytesPerElement == 1.0 ? 1.0 : 4.0;
        weightBytes += layers * projParams * bpe + lmHead * 4.0;
    }
};

// --- The timing wrapper --------------------------------------------------

/**
 * Forwards every call to the RuntimeBackend and times it. The wrapper
 * is passive like every backend: it changes no scheduling decision.
 * With a trace writer attached it also records one span per call.
 */
class TimedBackend final : public serve::ExecutionBackend
{
  public:
    TimedBackend(serve::RuntimeBackend &inner,
                 const model::ModelConfig &model,
                 obs::ChromeTraceWriter *spans, Clock::time_point origin)
        : inner_(inner), model_(model), spans_(spans), origin_(origin)
    {
    }

    void onPlan(const serve::IterationPlan &plan,
                const std::vector<serve::Request> &requests,
                const serve::AdmissionController &admission) override
    {
        const double before = busy_;
        const double wall = timed("onPlan", [&] {
            inner_.onPlan(plan, requests, admission);
        });
        steps.add(wall);

        // Host TTFT: the iterations from the first one that schedules
        // a prompt chunk through the one whose chunk completes the
        // pass that emits the first token.
        for (const serve::PrefillChunk &chunk : plan.chunks) {
            const serve::Request &r = requests[chunk.index];
            if (r.firstTokenTime >= 0)
                continue;
            const auto it = firstScheduled_.try_emplace(r.id, before)
                                .first;
            if (r.prefilled + chunk.tokens >= r.prefillTarget) {
                ttft.add(busy_ - it->second);
                firstScheduled_.erase(it);
            }
            work.forward(model_, chunk.tokens, chunk.history);
            prefillTokens += chunk.tokens;
        }
        for (std::size_t index : plan.decode) {
            const serve::Request &r = requests[index];
            work.forward(model_, 1, r.context() - 1);
        }
        if (plan.chunks.empty()) {
            decodeWall += wall;
            decodeEntries += plan.decode.size();
        } else {
            prefillWall += wall;
        }
    }

    void onFinish(const serve::Request &request) override
    {
        timed("onFinish", [&] { inner_.onFinish(request); });
    }

    void onDrain() override
    {
        timed("onDrain", [&] { inner_.onDrain(); });
    }

    /** Requests still waiting for their first token (0 at drain). */
    std::size_t pendingTtft() const { return firstScheduled_.size(); }

    SampleStats steps;      //!< onPlan wall seconds
    SampleStats ttft;       //!< host TTFT seconds
    double decodeWall = 0;  //!< decode-only iterations
    std::uint64_t decodeEntries = 0;
    double prefillWall = 0; //!< chunk-bearing iterations
    std::int64_t prefillTokens = 0;
    ShapeWork work;

  private:
    template <typename Fn>
    double timed(const char *name, Fn &&fn)
    {
        const auto t0 = Clock::now();
        if (spans_)
            spans_->beginSpan(kTrack, name, seconds(origin_, t0));
        fn();
        const auto t1 = Clock::now();
        if (spans_)
            spans_->endSpan(kTrack, seconds(origin_, t1));
        const double wall = seconds(t0, t1);
        busy_ += wall;
        return wall;
    }

    static constexpr obs::Track kTrack{1, 1};

    serve::RuntimeBackend &inner_;
    const model::ModelConfig &model_;
    obs::ChromeTraceWriter *spans_;
    Clock::time_point origin_;
    double busy_ = 0;
    std::map<std::uint64_t, double> firstScheduled_;
};

// --- Per-run accumulation ------------------------------------------------

/** Kernel-profile totals of the traced passes. */
struct KernelTotals
{
    std::map<std::string, double> seconds;
    std::map<std::string, double> calls;

    void add(const obs::KernelProfiler &profiler)
    {
        for (const auto &[name, stats] : profiler.stats()) {
            seconds[name] += profiler.totalSeconds(name);
            calls[name] += static_cast<double>(stats.count());
        }
    }

    double s(const std::string &name) const
    {
        const auto it = seconds.find(name);
        return it == seconds.end() ? 0.0 : it->second;
    }

    double n(const std::string &name) const
    {
        const auto it = calls.find(name);
        return it == calls.end() ? 0.0 : it->second;
    }

    /** Every kernel scope; the pool's loop timings are not kernels. */
    double kernelSeconds() const
    {
        double total = 0;
        for (const auto &[name, value] : seconds)
            if (name != "thread_pool.parallel_for")
                total += value;
        return total;
    }
};

/** Everything one run measured, summed over its episodes. */
struct RunTotals
{
    // Timed passes (the untraced pass of a traced run).
    std::size_t episodes = 0;
    std::size_t sent = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t mismatches = 0;
    std::size_t referenceChecked = 0;
    double runWall = 0;
    double outputTokens = 0;
    double promptTokens = 0;
    double iterations = 0;
    std::vector<double> episodeRates;  //!< served tokens per second
    std::vector<double> setups;
    SampleStats hostSteps;
    SampleStats hostTtft;

    // Traced passes.
    std::size_t tracedEpisodes = 0;
    double tracedWall = 0;
    double untracedWallOfTraced = 0;
    double spanRun = 0;       //!< "run" spans, from the trace events
    double spanChildren = 0;  //!< backend call spans inside them
    double costBuild = 0;
    double costEvaluations = 0;
    KernelTotals kernels;
    double decodeWall = 0;
    double decodeEntries = 0;
    double prefillWall = 0;
    double prefillTokens = 0;
    ShapeWork work;
    double batchSum = 0;
    double prefillChunks = 0;
    double preemptions = 0, swapOuts = 0, swapIns = 0, recomputes = 0;
    double kvPeakBytes = 0;
    double kvOccupancy = 0;
    double prefixLookups = 0, prefixHits = 0, prefixVerified = 0;
    double prefixHitTokens = 0, admittedPromptTokens = 0;
    SampleStats modelTtft, modelTokenGap;
    double sloMet = 0;
    double clusterRun = 0;
    double routedMaxShare = 0;
    double affinity = 0;
    double peakReplicas = 0;

    /** Invariant failures; any one fails the run. */
    std::vector<std::string> broken;
};

void
require(RunTotals &totals, bool ok, const std::string &what)
{
    if (!ok)
        totals.broken.push_back(what);
}

/** Traced-pass facts that do not depend on the kind of workload. */
void
addModelStats(RunTotals &t, const serve::Metrics &mx,
              const std::vector<serve::Request> &requests,
              const serve::SloTargets &slo)
{
    t.batchSum += mx.batchOccupancy.mean();
    t.prefillChunks += static_cast<double>(mx.prefillChunks);
    t.preemptions += static_cast<double>(mx.preemptions);
    t.swapOuts += static_cast<double>(mx.swapOuts);
    t.swapIns += static_cast<double>(mx.swapIns);
    t.recomputes += static_cast<double>(mx.recomputes);
    t.kvPeakBytes += mx.kvReservedPeakBytes;
    t.kvOccupancy += mx.kvOccupancy.mean();
    t.prefixLookups += static_cast<double>(mx.prefixLookups);
    t.prefixHits += static_cast<double>(mx.prefixHits);
    t.prefixHitTokens += static_cast<double>(mx.prefixHitTokens);
    t.modelTtft.merge(mx.ttft);
    t.modelTokenGap.merge(mx.tokenGap);
    for (const serve::Request &r : requests)
        if (r.state == serve::RequestState::Finished) {
            t.admittedPromptTokens += static_cast<double>(r.lIn);
            if (serve::meetsSlo(r, slo))
                t.sloMet += 1;
        }
}

/**
 * Sums the recorded spans: "run" spans (one per traced episode) into
 * @p run, and the backend-call spans directly inside them into
 * @p children. A run's self time is run minus children.
 */
void
sumSpans(const obs::ChromeTraceWriter &trace, double &run,
         double &children)
{
    run = children = 0;
    std::vector<double> open;  // start times of the open spans
    for (const auto &e : trace.events()) {
        if (e.phase == 'B') {
            open.push_back(e.seconds);
        } else if (e.phase == 'E' && !open.empty()) {
            const double span = e.seconds - open.back();
            open.pop_back();
            if (open.empty())
                run += span;
            else if (open.size() == 1)
                children += span;
        }
    }
}

// --- Episodes ------------------------------------------------------------

constexpr obs::Track kRunTrack{1, 1};

/**
 * One runtime-backed episode. @p trace non-null makes it the traced
 * pass: spans go to @p trace and the kernel profiler is on.
 * Returns the wall seconds of run().
 */
double
servingEpisode(const Workload &w, std::uint64_t seed, RunTotals &t,
               obs::ChromeTraceWriter *trace, Clock::time_point origin)
{
    const bool traced = trace != nullptr;
    serve::Config cfg = w.serving;
    cfg.seed = seed;

    const auto s0 = Clock::now();
    serve::ServingEngine engine(w.system, w.model, cfg);
    const auto s1 = Clock::now();
    serve::RuntimeBackend backend(w.system, w.model, cfg, traced);
    const auto s2 = Clock::now();

    TimedBackend timed(backend, w.model, trace, origin);
    const auto r0 = Clock::now();
    if (trace)
        trace->beginSpan(kRunTrack, "run", seconds(origin, r0));
    const serve::Result result = engine.run(&timed);
    const auto r1 = Clock::now();
    if (trace) {
        trace->endSpan(kRunTrack, seconds(origin, r1));
        // The episode's kernel aggregates, next to its run span.
        obs::Args kernels;
        for (const auto &[kernel, stats] :
             backend.kernelProfiler()->stats())
            kernels.push_back(obs::arg(
                kernel + "_s",
                backend.kernelProfiler()->totalSeconds(kernel)));
        trace->instant(kRunTrack, "kernel_profile", seconds(origin, r1),
                       std::move(kernels));
    }
    const double wall = seconds(r0, r1);

    // --- Correctness, outside the timed phase ---------------------
    const serve::Metrics &mx = result.metrics;
    const auto &c = backend.counters();
    const std::string at = " (" + w.name + ", episode seed " +
                           std::to_string(seed) + ")";
    require(t,
            c.prefillChunks == mx.prefillChunks &&
                c.evictions == mx.recomputes &&
                c.recomputesVerified == mx.recomputes &&
                c.swapOuts == mx.swapOuts && c.swapIns == mx.swapIns &&
                c.swapOutBytes == mx.swapOutBytes &&
                c.swapInBytes == mx.swapInBytes &&
                static_cast<std::int64_t>(c.tokensProduced()) ==
                    mx.tokensGenerated,
            "runtime counters differ from serve::Metrics" + at);
    require(t, c.prefixHitsVerified == mx.prefixHits,
            "prefix hits not all verified" + at);
    require(t, result.kvReservedAtDrain == 0,
            "KV reserved at drain" + at);
    require(t, timed.pendingTtft() == 0,
            "a request never emitted its first token" + at);

    if (!traced) {
        std::size_t sampled = 0;
        std::size_t mismatches = 0, checked = 0;
        double prompt = 0;
        for (const serve::Request &r : result.requests) {
            if (r.state != serve::RequestState::Finished)
                continue;
            prompt += static_cast<double>(r.lIn);
            const bool sample = r.preemptions > 0 ||
                                sampled++ < kReferenceSample;
            if (!sample)
                continue;
            ++checked;
            if (backend.outputs(r.id) != backend.referenceOutputs(r))
                ++mismatches;
        }
        ++t.episodes;
        t.sent += result.requests.size();
        t.completed += mx.completed;
        t.rejected += mx.rejected();
        t.mismatches += mismatches;
        t.referenceChecked += checked;
        t.runWall += wall;
        t.outputTokens += static_cast<double>(mx.tokensGenerated);
        t.promptTokens += prompt;
        t.iterations += static_cast<double>(mx.iterations);
        t.episodeRates.push_back(
            (prompt + static_cast<double>(mx.tokensGenerated)) / wall);
        t.setups.push_back(seconds(s0, s2));
        t.hostSteps.merge(timed.steps);
        t.hostTtft.merge(timed.ttft);
        return wall;
    }

    ++t.tracedEpisodes;
    t.tracedWall += wall;
    t.costBuild += seconds(s0, s1);
    t.costEvaluations +=
        static_cast<double>(engine.costs().evaluations());
    t.kernels.add(*backend.kernelProfiler());
    t.decodeWall += timed.decodeWall;
    t.decodeEntries += static_cast<double>(timed.decodeEntries);
    t.prefillWall += timed.prefillWall;
    t.prefillTokens += static_cast<double>(timed.prefillTokens);
    t.work.flops += timed.work.flops;
    t.work.weightBytes += timed.work.weightBytes;
    t.prefixVerified += static_cast<double>(c.prefixHitsVerified);
    addModelStats(t, mx, result.requests, w.slo);
    return wall;
}

/** One fleet-simulator episode; returns the wall seconds of run(). */
double
fleetEpisode(const Workload &w, std::uint64_t seed, RunTotals &t,
             obs::ChromeTraceWriter *trace, Clock::time_point origin)
{
    cluster::ClusterConfig cfg = w.fleet;
    cfg.engine.seed = seed;

    const auto s0 = Clock::now();
    cluster::ClusterRouter router(w.system, w.model, cfg);
    const auto s1 = Clock::now();

    const auto r0 = Clock::now();
    if (trace)
        trace->beginSpan(kRunTrack, "run", seconds(origin, r0));
    const cluster::ClusterResult result = router.run();
    const auto r1 = Clock::now();
    if (trace)
        trace->endSpan(kRunTrack, seconds(origin, r1));
    const double wall = seconds(r0, r1);

    const serve::Metrics &mx = result.aggregate;
    const std::string at = " (fleet-sim, episode seed " +
                           std::to_string(seed) + ")";
    require(t, result.requestsRouted == cfg.engine.requests,
            "routed != sent" + at);
    require(t, mx.completed + mx.rejected() == result.requestsRouted,
            "completed + rejected != routed" + at);
    std::size_t routedMax = 0;
    for (const auto &replica : result.replicas) {
        require(t, replica.result.kvReservedAtDrain == 0,
                "KV reserved at drain" + at);
        routedMax = std::max(routedMax, replica.routed);
    }

    if (trace == nullptr) {
        double prompt = 0;
        for (const auto &replica : result.replicas)
            for (const serve::Request &r : replica.result.requests)
                if (r.state == serve::RequestState::Finished)
                    prompt += static_cast<double>(r.lIn);
        ++t.episodes;
        t.sent += cfg.engine.requests;
        t.completed += mx.completed;
        t.rejected += mx.rejected();
        t.runWall += wall;
        t.outputTokens += static_cast<double>(mx.tokensGenerated);
        t.promptTokens += prompt;
        t.iterations += static_cast<double>(mx.iterations);
        t.episodeRates.push_back(
            (prompt + static_cast<double>(mx.tokensGenerated)) / wall);
        t.setups.push_back(seconds(s0, s1));
        return wall;
    }

    ++t.tracedEpisodes;
    t.tracedWall += wall;
    t.costBuild += seconds(s0, s1);
    t.costEvaluations +=
        static_cast<double>(router.costs().evaluations());
    t.clusterRun += wall;
    t.routedMaxShare += static_cast<double>(routedMax) /
                        static_cast<double>(result.requestsRouted);
    t.affinity += result.sessionAffinityHitRate;
    t.peakReplicas += static_cast<double>(result.peakReplicas);
    std::vector<serve::Request> all;
    for (const auto &replica : result.replicas)
        all.insert(all.end(), replica.result.requests.begin(),
                   replica.result.requests.end());
    addModelStats(t, mx, all, w.slo);
    return wall;
}

// --- Output --------------------------------------------------------------

std::string
num(double value)
{
    if (!std::isfinite(value))
        return "null";
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return os.str();
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/** Percentile @p q of @p stats; 0 when it holds no samples. */
double
pct(const SampleStats &stats, double q)
{
    return stats.count() ? stats.percentile(q) : 0.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** CPU brand string and ISA flags, from CPUID. */
std::string
hostJson()
{
    unsigned regs[12] = {};
    std::string brand;
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char text[49] = {};
        std::memcpy(text, regs, 48);
        brand = text;
        brand.erase(0, brand.find_first_not_of(' '));
    }
    unsigned a = 0, b = 0, c = 0, d = 0;
    bool amxTile = false, amxInt8 = false, amxBf16 = false;
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
        amxBf16 = (d >> 22) & 1;
        amxTile = (d >> 24) & 1;
        amxInt8 = (d >> 25) & 1;
    }
    __builtin_cpu_init();
    const char *threadsEnv = std::getenv("LIA_THREADS");
    std::ostringstream os;
    os << "{\"cpu\": \"" << brand << "\""
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"avx2\": "
       << (__builtin_cpu_supports("avx2") ? "true" : "false")
       << ", \"avx512f\": "
       << (__builtin_cpu_supports("avx512f") ? "true" : "false")
       << ", \"amx_tile\": " << (amxTile ? "true" : "false")
       << ", \"amx_int8\": " << (amxInt8 ? "true" : "false")
       << ", \"amx_bf16\": " << (amxBf16 ? "true" : "false")
       << ", \"compiler\": \"" << __VERSION__ << "\""
       << ", \"build_type\": \"" << LIA_BENCH_BUILD_TYPE << "\""
       << ", \"lia_threads\": \"" << (threadsEnv ? threadsEnv : "") << "\""
       << ", \"kernel_threads\": "
       << base::ThreadPool::defaultThreadCount() << "}";
    return os.str();
}

/** name -> (value, unit), printed in insertion order. */
class MetricList
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit)
    {
        items_.push_back({name, value, unit});
    }

    std::string json() const
    {
        std::ostringstream os;
        os << "{";
        for (std::size_t i = 0; i < items_.size(); ++i)
            os << (i ? ", " : "") << "\"" << items_[i].name
               << "\": {\"value\": " << num(items_[i].value)
               << ", \"unit\": \"" << items_[i].unit << "\"}";
        os << "}";
        return os.str();
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

/** The end-to-end metrics of the timed passes. */
void
endToEnd(const Workload &w, const RunTotals &t, MetricList &out)
{
    const double peakRssMb = [] {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;
    }();
    out.add("served_tokens_per_s", median(t.episodeRates), "tok/s");
    out.add("tokens_per_s", ratio(t.outputTokens, t.runWall), "tok/s");
    out.add("prompt_tokens_per_s", ratio(t.promptTokens, t.runWall),
            "tok/s");
    out.add("requests_per_s",
            ratio(static_cast<double>(t.completed), t.runWall), "req/s");
    out.add("iteration_ms_mean", 1e3 * ratio(t.runWall, t.iterations),
            "ms");
    out.add("setup_s", median(t.setups), "s");
    out.add("peak_rss_mb", peakRssMb, "MB");
    out.add("failed_share",
            ratio(static_cast<double>(t.rejected + t.mismatches),
                  static_cast<double>(t.sent)),
            "ratio");
    if (w.kind == Kind::RuntimeServing) {
        out.add("ttft_ms_p50", 1e3 * pct(t.hostTtft, 50.0), "ms");
        out.add("ttft_ms_p90", 1e3 * pct(t.hostTtft, 90.0), "ms");
        out.add("step_ms_p50", 1e3 * pct(t.hostSteps, 50.0), "ms");
        out.add("step_ms_p99", 1e3 * pct(t.hostSteps, 99.0), "ms");
    } else {
        out.add("sim_requests_per_s",
                ratio(static_cast<double>(t.completed), t.runWall),
                "req/s");
    }
}

/** The per-layer metrics of the traced passes, per traced episode. */
void
perLayer(const Workload &w, const RunTotals &t, MetricList &out)
{
    const double n = std::max<double>(1.0, t.tracedEpisodes);
    const KernelTotals &k = t.kernels;
    const bool runtime = w.kind == Kind::RuntimeServing;
    const double busy = runtime ? t.spanChildren / n : 0.0;
    const double kernel = k.kernelSeconds() / n;

    for (const char *name : {"matmul_int8", "matmul_packed",
                             "matmul_transposed", "matmul"}) {
        const std::string prefix = std::string("runtime.") + name;
        out.add(prefix + ".calls", k.n(name) / n, "count");
        out.add(prefix + ".s", k.s(name) / n, "s");
    }
    out.add("runtime.softmax_rows.s", k.s("softmax_rows") / n, "s");
    out.add("runtime.layer_norm.s", k.s("layer_norm") / n, "s");
    out.add("runtime.elementwise.s",
            (k.s("add") + k.s("relu") + k.s("silu") + k.s("mul")) / n,
            "s");
    out.add("runtime.kernel_s", kernel, "s");
    out.add("runtime.glue_s", busy - kernel, "s");
    out.add("runtime.decode_ms_per_token",
            1e3 * ratio(t.decodeWall, t.decodeEntries), "ms");
    out.add("runtime.prefill_ms_per_token",
            1e3 * ratio(t.prefillWall, t.prefillTokens), "ms");
    out.add("runtime.weight_gb_per_s",
            ratio(t.work.weightBytes, t.spanChildren) / 1e9, "GB/s");
    out.add("runtime.gflop_per_s",
            ratio(t.work.flops, t.spanChildren) / 1e9, "GFLOP/s");

    out.add("base.parallel_for.calls",
            k.n("thread_pool.parallel_for") / n, "count");
    out.add("base.parallel_for.s", k.s("thread_pool.parallel_for") / n,
            "s");

    out.add("serve.backend.busy_s", busy, "s");
    out.add("serve.engine.self_s", (t.spanRun - t.spanChildren) / n, "s");
    out.add("serve.iterations",
            t.iterations / std::max<double>(1.0, t.episodes), "count");
    out.add("serve.batch_mean", t.batchSum / n, "count");
    out.add("serve.prefill_chunks", t.prefillChunks / n, "count");
    out.add("serve.preemptions", t.preemptions / n, "count");
    out.add("serve.swap_outs", t.swapOuts / n, "count");
    out.add("serve.swap_ins", t.swapIns / n, "count");
    out.add("serve.recomputes", t.recomputes / n, "count");
    out.add("serve.kv_reserved_peak_mb", t.kvPeakBytes / n / kMiB, "MB");
    out.add("serve.kv_occupancy_mean", t.kvOccupancy / n, "ratio");
    out.add("serve.prefix.hit_share", ratio(t.prefixHits, t.prefixLookups),
            "ratio");
    out.add("serve.prefix.token_share",
            ratio(t.prefixHitTokens, t.admittedPromptTokens), "ratio");
    out.add("serve.prefix.verified_share",
            runtime ? ratio(t.prefixVerified, t.prefixHits) : 0.0,
            "ratio");
    out.add("serve.model.ttft_s_p50", pct(t.modelTtft, 50.0), "s");
    out.add("serve.model.ttft_s_p99", pct(t.modelTtft, 99.0), "s");
    out.add("serve.model.token_gap_s_p99", pct(t.modelTokenGap, 99.0),
            "s");
    out.add("serve.model.goodput_share",
            ratio(t.sloMet, static_cast<double>(t.modelTtft.count())),
            "ratio");
    out.add("serve.host.ttft_ms_p50", 1e3 * pct(t.hostTtft, 50.0), "ms");
    out.add("serve.host.ttft_ms_p90", 1e3 * pct(t.hostTtft, 90.0),
            "ms");
    out.add("serve.host.step_ms_p50", 1e3 * pct(t.hostSteps, 50.0), "ms");
    out.add("serve.host.step_ms_p99", 1e3 * pct(t.hostSteps, 99.0), "ms");

    out.add("cluster.run_s", t.clusterRun / n, "s");
    out.add("cluster.routed_max_share", t.routedMaxShare / n, "ratio");
    out.add("cluster.affinity_hit_rate", t.affinity / n, "ratio");
    out.add("cluster.peak_replicas", t.peakReplicas / n, "count");

    out.add("core.cost_cache.build_s", t.costBuild / n, "s");
    out.add("core.cost_cache.evaluations", t.costEvaluations / n,
            "count");

    out.add("obs.trace_overhead_share",
            ratio(t.tracedWall, t.untracedWallOfTraced) - 1.0, "ratio");
}

} // namespace

int
main(int argc, char **argv)
{
    const ArgParser args(argc, argv);
    const std::string name = args.getString("workload");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const double budget = args.getDouble("seconds", 10.0);
    const bool trace = args.getInt("trace", 0) != 0;
    const bool smoke = args.getInt("smoke", 0) != 0;
    const std::string traceOut = args.getString("trace-out");
    if (budget <= 0) {
        std::cerr << "liabench: --seconds must be positive\n";
        return 2;
    }
    const Workload w = workloadByName(name, smoke);
    const auto episode = w.kind == Kind::FleetSim ? fleetEpisode
                                                  : servingEpisode;

    const auto origin = Clock::now();
    obs::ChromeTraceWriter spans;
    spans.setTrackName(kRunTrack, "liabench " + w.name, "host wall");
    RunTotals totals;
    double measured = 0;
    for (std::uint64_t k = 0; measured < budget && totals.broken.empty();
         ++k) {
        const std::uint64_t s = episodeSeed(seed, k);
        const double untraced = episode(w, s, totals, nullptr, origin);
        measured += untraced;
        if (trace) {
            totals.untracedWallOfTraced += untraced;
            measured += episode(w, s, totals, &spans, origin);
        }
        if (smoke)
            break;
    }
    if (trace) {
        sumSpans(spans, totals.spanRun, totals.spanChildren);
        // The spans must account for the wall time measured around
        // run() by an independent pair of clock reads.
        require(totals,
                std::abs(totals.spanRun - totals.tracedWall) <=
                    0.03 * totals.tracedWall,
                "run spans do not cover the traced wall time");
        require(totals, totals.spanChildren <= totals.spanRun,
                "backend spans exceed their run spans");
        if (!traceOut.empty() && !spans.writeFile(traceOut))
            std::cerr << "liabench: cannot write " << traceOut << "\n";
    }

    MetricList metrics;
    endToEnd(w, totals, metrics);
    if (trace)
        perLayer(w, totals, metrics);

    std::ostringstream broken;
    for (std::size_t i = 0; i < totals.broken.size(); ++i)
        broken << (i ? ", " : "") << "\"" << totals.broken[i] << "\"";
    std::cout << "{\"workload\": \"" << w.name << "\""
              << ", \"seed\": " << seed
              << ", \"episodes\": " << totals.episodes
              << ", \"attempted\": " << totals.sent
              << ", \"failed\": " << totals.rejected + totals.mismatches
              << ", \"mismatches\": " << totals.mismatches
              << ", \"reference_checked\": " << totals.referenceChecked
              << ", \"invariants_broken\": [" << broken.str() << "]"
              << ", \"host\": " << hostJson()
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return totals.broken.empty() ? 0 : 1;
}
