/**
 * @file
 * Serving on the int8 runtime (DESIGN.md §12): an int8-quantized
 * model (weightBytesPerElement 1.0) served through ServingEngine with
 * a RuntimeBackend must flow end to end — the backend derives
 * ExecutorConfig::weightPrecision from the model config, so every
 * executed projection runs the int8 VNNI-style packed kernels — while
 * keeping all the serving invariants: engine/runtime token accounting
 * in lockstep, no KV leaks at drain, served streams identical to
 * uninterrupted single-sequence generation, and bit-identical repeat
 * runs (the int8 path is deterministic at any thread count, so a
 * served workload is reproducible like the bf16 one). Int4 has no
 * kernel, so a runtime-backed int4 model is rejected up front.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "base/logging.hh"
#include "model/config.hh"
#include "serve/engine.hh"
#include "serve/runtime_backend.hh"
#include "support/differential.hh"

namespace {

using namespace lia;
using serve::RequestState;

model::ModelConfig
int8ServedModel()
{
    // The differential harness's tiny served model, int8-priced: the
    // backend sees weightBytesPerElement == 1.0 and switches the
    // executor to the int8 packed kernels.
    return model::quantized(model::tinyOpt(32, 2, 2, 256, 101),
                            model::WeightPrecision::Int8);
}

serve::Config
servedConfig()
{
    serve::Config cfg;
    cfg.requests = 6;
    cfg.seed = 21;
    cfg.maxBatch = 4;
    cfg.trace = trace::TraceKind::Code;
    cfg.maxContext = 128;
    cfg.prefillChunkTokens = 16;     // exercise chunked prefill
    cfg.kvBudgetCapBytes = 1 << 20;  // generous: admit everything
    cfg.arrivalRatePerSecond = 50.0;
    return cfg;
}

serve::Result
run(serve::RuntimeBackend &backend, const serve::Config &cfg)
{
    serve::ServingEngine engine(test::tinySystem(false),
                                int8ServedModel(), cfg);
    return engine.run(&backend);
}

TEST(QuantizedServingTest, Int8RunKeepsTheServingInvariants)
{
    const auto cfg = servedConfig();
    serve::RuntimeBackend backend(test::tinySystem(false),
                                  int8ServedModel(), cfg);
    const auto result = run(backend, cfg);

    EXPECT_GT(result.metrics.completed, 0u);
    EXPECT_EQ(result.metrics.completed + result.metrics.rejected(),
              result.requests.size());

    // Engine accounting and executed runtime work in lockstep.
    const auto &counters = backend.counters();
    EXPECT_EQ(counters.prefillChunks, result.metrics.prefillChunks);
    EXPECT_EQ(static_cast<std::int64_t>(counters.tokensProduced()),
              result.metrics.tokensGenerated);

    // No live or parked KV after the drain.
    EXPECT_DOUBLE_EQ(backend.liveKvBytes(), 0.0);
    EXPECT_DOUBLE_EQ(backend.swappedKvBytes(), 0.0);
}

TEST(QuantizedServingTest, ServedStreamsMatchUninterruptedReference)
{
    // Chunked prefill and batching must not change a request's int8
    // greedy stream: each finished request's served tokens equal one
    // monolithic prefill + plain decode on a fresh cache.
    const auto cfg = servedConfig();
    serve::RuntimeBackend backend(test::tinySystem(false),
                                  int8ServedModel(), cfg);
    const auto result = run(backend, cfg);

    std::size_t checked = 0;
    for (const auto &request : result.requests) {
        if (request.state != RequestState::Finished)
            continue;
        EXPECT_EQ(backend.outputs(request.id),
                  backend.referenceOutputs(request))
            << "request " << request.id;
        ++checked;
    }
    EXPECT_GT(checked, 0u);
}

TEST(QuantizedServingTest, RepeatRunsAreBitIdentical)
{
    const auto cfg = servedConfig();
    serve::RuntimeBackend first(test::tinySystem(false),
                                int8ServedModel(), cfg);
    serve::RuntimeBackend second(test::tinySystem(false),
                                 int8ServedModel(), cfg);
    const auto a = run(first, cfg);
    const auto b = run(second, cfg);

    EXPECT_DOUBLE_EQ(a.metrics.makespan, b.metrics.makespan);
    EXPECT_EQ(a.metrics.tokensGenerated, b.metrics.tokensGenerated);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        const auto &ra = a.requests[i];
        if (ra.state != RequestState::Finished)
            continue;
        EXPECT_EQ(first.outputs(ra.id), second.outputs(ra.id))
            << "request " << ra.id;
    }
}

TEST(QuantizedServingTest, Int4BackendIsRejected)
{
    // Priced at 0.5 B/element but only an fp32 path could run it: the
    // backend must refuse rather than serve mismatched bytes.
    const auto int4 = model::quantized(model::tinyOpt(32, 2, 2, 256, 101),
                                       model::WeightPrecision::Int4);
    detail::setThrowOnError(true);
    EXPECT_THROW(serve::RuntimeBackend(test::tinySystem(false), int4,
                                       servedConfig()),
                 std::runtime_error);
    detail::setThrowOnError(false);
}

} // namespace
