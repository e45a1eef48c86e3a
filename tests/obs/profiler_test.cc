/**
 * @file
 * Tests for the wall-clock kernel profiler: aggregation, the
 * null-profiler zero-overhead scope, the thread-pool observer hook,
 * and the executor gating — profiling on vs off must produce
 * bit-identical generations.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "base/thread_pool.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "obs/profiler.hh"
#include "runtime/executor.hh"

namespace {

using namespace lia;

TEST(KernelProfilerTest, RecordAggregatesPerName)
{
    obs::KernelProfiler profiler;
    profiler.record("matmul", 0.25);
    profiler.record("matmul", 0.75);
    profiler.record("softmax", 0.5);

    EXPECT_EQ(profiler.calls("matmul"), 2u);
    EXPECT_EQ(profiler.calls("softmax"), 1u);
    EXPECT_EQ(profiler.calls("absent"), 0u);
    EXPECT_DOUBLE_EQ(profiler.totalSeconds("matmul"), 1.0);
    EXPECT_DOUBLE_EQ(profiler.totalSeconds("absent"), 0.0);

    const auto stats = profiler.stats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_DOUBLE_EQ(stats.at("matmul").mean(), 0.5);
}

TEST(KernelProfilerTest, ScopeRecordsOneSample)
{
    obs::KernelProfiler profiler;
    {
        obs::KernelProfiler::Scope scope(&profiler, "unit");
    }
    EXPECT_EQ(profiler.calls("unit"), 1u);
    EXPECT_GE(profiler.totalSeconds("unit"), 0.0);
}

TEST(KernelProfilerTest, NullProfilerScopeIsInert)
{
    // The disabled path: constructing and destroying a scope against
    // a null profiler must be a no-op (it never reads the clock).
    obs::KernelProfiler::Scope scope(nullptr, "unused");
    SUCCEED();
}

TEST(KernelProfilerTest, ToJsonListsEveryKernel)
{
    obs::KernelProfiler profiler;
    profiler.record("k1", 0.5);
    const std::string json = profiler.toJson();
    EXPECT_NE(json.find("\"k1\""), std::string::npos);
    EXPECT_NE(json.find("\"calls\":1"), std::string::npos);
    EXPECT_NE(json.find("\"total_s\":0.5"), std::string::npos);
    EXPECT_EQ(obs::KernelProfiler().toJson(), "{\n}\n");
}

TEST(KernelProfilerTest, ThreadPoolObserverSeesDispatchedLoops)
{
    base::ThreadPool pool(2);
    obs::KernelProfiler profiler;
    pool.setObserver(&profiler);

    std::atomic<std::int64_t> sum{0};
    pool.parallelFor(1000, 1, [&sum](std::int64_t b, std::int64_t e) {
        sum.fetch_add(e - b, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 1000);
    EXPECT_EQ(profiler.calls("thread_pool.parallel_for"), 1u);

    // Inline (too-small) loops never dispatch, so they are not
    // observed — the fast path stays untouched.
    pool.parallelFor(1, 64, [](std::int64_t, std::int64_t) {});
    EXPECT_EQ(profiler.calls("thread_pool.parallel_for"), 1u);

    pool.setObserver(nullptr);
    pool.parallelFor(1000, 1, [](std::int64_t, std::int64_t) {});
    EXPECT_EQ(profiler.calls("thread_pool.parallel_for"), 1u);
}

// --- Executor gating ------------------------------------------------

std::vector<std::vector<std::int64_t>>
somePrompts(const model::ModelConfig &m)
{
    std::vector<std::vector<std::int64_t>> out;
    for (std::int64_t b = 0; b < 2; ++b) {
        std::vector<std::int64_t> p;
        for (std::int64_t t = 0; t < 8; ++t)
            p.push_back((7 * b + 3 * t + 1) % m.vocabSize);
        out.push_back(std::move(p));
    }
    return out;
}

TEST(ExecutorProfilingTest, ProfilingNeverChangesResults)
{
    const auto sys = hw::sprA100();
    const auto m = model::tinyOpt();
    Rng rngA(42), rngB(42);

    runtime::ExecutorConfig plain;
    runtime::CooperativeExecutor off(
        sys, runtime::TransformerWeights::random(m, rngA), plain);

    runtime::ExecutorConfig profiled;
    profiled.profileKernels = true;
    runtime::CooperativeExecutor on(
        sys, runtime::TransformerWeights::random(m, rngB), profiled);

    EXPECT_EQ(off.kernelProfiler(), nullptr);
    ASSERT_NE(on.kernelProfiler(), nullptr);

    const auto prompts = somePrompts(m);
    EXPECT_EQ(off.generate(prompts, 6), on.generate(prompts, 6));

    // The profiled run attributed real wall time to the kernels the
    // forward pass exercises.
    const auto *profiler = on.kernelProfiler();
    EXPECT_GT(profiler->calls("matmul_packed"), 0u);
    EXPECT_GT(profiler->calls("attention"), 0u);
    EXPECT_GT(profiler->calls("layer_norm"), 0u);
    EXPECT_GT(profiler->totalSeconds("matmul_packed"), 0.0);
}

} // namespace
