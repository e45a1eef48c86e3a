/**
 * @file
 * One forward pass per serving iteration (DESIGN.md §6).
 *
 * RuntimeBackend::onPlan runs every decode entry (a speculative verify
 * or its k = 0 case, a plain decode) and prefill chunk of a plan in a
 * single CooperativeExecutor::forward call. With kernel profiling on, each such plan must therefore make
 * exactly one pass's matmul_packed calls — one per projection per
 * layer plus the LM head — however many verifies, chunks and decodes
 * it carries, a plan with none must make none, and the whole run's
 * target calls must be one pass per computing plan (a verify run
 * outside onPlan would show up only there).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "base/thread_pool.hh"
#include "obs/profiler.hh"
#include "serve/engine.hh"
#include "serve/runtime_backend.hh"
#include "support/differential.hh"

namespace {

using namespace lia;

/** Forwards to a RuntimeBackend and counts each plan's matmuls. */
class PassCountingBackend : public serve::ExecutionBackend
{
  public:
    explicit PassCountingBackend(serve::RuntimeBackend &inner)
        : inner_(inner)
    {}

    struct Plan
    {
        std::size_t chunks = 0;
        std::size_t decodes = 0;   //!< plain decodes and verifies
        std::size_t verifies = 0;
        std::uint64_t matmuls = 0;
    };
    std::vector<Plan> plans;

    void
    onPlan(const serve::IterationPlan &plan,
           const std::vector<serve::Request> &requests,
           const serve::AdmissionController &admission) override
    {
        const obs::KernelProfiler &profiler = *inner_.kernelProfiler();
        const std::uint64_t before = profiler.calls("matmul_packed");
        inner_.onPlan(plan, requests, admission);
        std::size_t verifies = 0;
        for (std::int64_t k : plan.specDrafts)
            verifies += k > 0 ? 1 : 0;
        plans.push_back({plan.chunks.size(), plan.decode.size(),
                         verifies,
                         profiler.calls("matmul_packed") - before});
    }

    std::int64_t
    acceptedDrafts(const serve::Request &request) const override
    {
        return inner_.acceptedDrafts(request);
    }

    void
    onFinish(const serve::Request &request) override
    {
        inner_.onFinish(request);
    }

    void onDrain() override { inner_.onDrain(); }

  private:
    serve::RuntimeBackend &inner_;
};

/** A burst whose prompts span several chunks: chunks beside decodes. */
serve::Config
burstConfig()
{
    serve::Config cfg;
    cfg.requests = 16;
    cfg.seed = 5;
    cfg.maxBatch = 8;
    cfg.trace = trace::TraceKind::Code;
    cfg.maxContext = 128;
    cfg.prefillChunkTokens = 8;       // prompts span several chunks
    cfg.kvBudgetCapBytes = 1 << 20;   // admit everything
    cfg.arrivalRatePerSecond = 1e4;   // a burst: chunks beside decodes
    return cfg;
}

/**
 * Serve @p cfg on a profiling RuntimeBackend and check every plan made
 * one pass's matmuls (none when it computes nothing), and the whole
 * run one pass per computing plan. Returns the per-plan record.
 */
std::vector<PassCountingBackend::Plan>
runCounted(const serve::Config &cfg)
{
    const model::ModelConfig &model = test::tinyServedModel();
    serve::RuntimeBackend backend(test::tinySystem(false), model, cfg,
                                  /*profile_kernels=*/true);
    PassCountingBackend counting(backend);
    serve::ServingEngine engine(test::tinySystem(false), model, cfg);
    const serve::Result result = engine.run(&counting);
    EXPECT_EQ(result.metrics.completed, cfg.requests);

    // Q, K, V, out-projection, FC1 and FC2 per layer, then the LM head.
    const auto pass = static_cast<std::uint64_t>(6 * model.numLayers + 1);
    std::uint64_t computing = 0;
    for (std::size_t i = 0; i < counting.plans.size(); ++i) {
        const PassCountingBackend::Plan &plan = counting.plans[i];
        const bool computes = plan.chunks + plan.decodes > 0;
        computing += computes ? 1 : 0;
        EXPECT_EQ(plan.matmuls, computes ? pass : 0)
            << "plan " << i << ": " << plan.chunks << " chunks, "
            << plan.decodes << " decodes, " << plan.verifies
            << " verifies";
    }
    EXPECT_EQ(backend.kernelProfiler()->calls("matmul_packed"),
              pass * computing);
    EXPECT_EQ(backend.counters().prefillChunks,
              result.metrics.prefillChunks);
    EXPECT_EQ(backend.counters().specSteps, result.metrics.specSteps);
    // The target's profiler observes the shared pool's dispatches,
    // speculation on or off; a one-thread pool runs every loop inline
    // and dispatches none.
    if (base::ThreadPool::shared().threadCount() > 1) {
        EXPECT_GT(
            backend.kernelProfiler()->calls("thread_pool.parallel_for"),
            0u);
    }
    return counting.plans;
}

TEST(RuntimeBackendTest, EachPlanRunsOneForwardPass)
{
    std::size_t mixed = 0;
    for (const PassCountingBackend::Plan &plan : runCounted(burstConfig()))
        if (plan.chunks >= 2 && plan.decodes >= 2)
            ++mixed;
    EXPECT_GT(mixed, 0u) << "no plan mixed two chunks with two decodes";

    // Speculation on: every verify is one more feed of the same pass.
    serve::Config speculative = burstConfig();
    speculative.spec.enabled = true;
    speculative.spec.draftTokens = 3;
    std::size_t verifying = 0;
    for (const PassCountingBackend::Plan &plan : runCounted(speculative))
        if (plan.verifies >= 2 &&
            plan.chunks + plan.decodes > plan.verifies)
            ++verifying;
    EXPECT_GT(verifying, 0u) << "no plan carried two verifies beside a "
                                "chunk or a plain decode";
}

} // namespace
