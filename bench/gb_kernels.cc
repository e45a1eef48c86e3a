/**
 * @file
 * Google-benchmark microbenchmarks of the functional back-end's
 * numeric kernels (real measured host performance, not modeled):
 * the packed GEMM, fused causal attention, and LayerNorm at
 * decoder-layer shapes of the tiny evaluation model, on the kernel
 * tier CPUID selects.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "base/rng.hh"
#include "runtime/kernels.hh"
#include "runtime/kv_cache.hh"

namespace {

using namespace lia;
using namespace lia::runtime;

void
BM_Gemm(benchmark::State &state)
{
    const auto rows = static_cast<std::int64_t>(state.range(0));
    const std::int64_t d = 256;
    Rng rng(1);
    const Tensor a = Tensor::randomNormal({rows, d}, rng, 1.0);
    const PackedMatrix b =
        packColumns(Tensor::randomNormal({d, 4 * d}, rng, 1.0));
    for (auto _ : state) {
        Tensor c = matmulPacked(a, b, Tensor(), KernelOptions{false});
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * rows * d * 4 * d);
}
BENCHMARK(BM_Gemm)->Arg(8)->Arg(32)->Arg(128);

void
BM_GemmBf16Rounded(benchmark::State &state)
{
    const auto rows = static_cast<std::int64_t>(state.range(0));
    const std::int64_t d = 256;
    Rng rng(1);
    const Tensor a = Tensor::randomNormal({rows, d}, rng, 1.0);
    const PackedMatrix b =
        packColumns(Tensor::randomNormal({d, 4 * d}, rng, 1.0));
    for (auto _ : state) {
        Tensor c = matmulPacked(a, b, Tensor(), KernelOptions{true});
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * rows * d * 4 * d);
}
BENCHMARK(BM_GemmBf16Rounded)->Arg(32);

void
BM_AttentionScores(benchmark::State &state)
{
    // One head of causal attention for a 16-token chunk at the end of
    // an L-token context: Q x K^T, softmax, and S x V.
    const auto len = static_cast<std::int64_t>(state.range(0));
    const std::int64_t tokens = 16, d = 64;
    Rng rng(2);
    const Tensor q = Tensor::randomNormal({tokens, d}, rng, 1.0);
    const Tensor k = Tensor::randomNormal({len, d}, rng, 1.0);
    const Tensor v = Tensor::randomNormal({len, d}, rng, 1.0);
    const std::vector<KvLayerView> view{{k.data(), v.data(), len, d}};
    for (auto _ : state) {
        Tensor o = attention(q, view, tokens, 1, 1, d,
                             KernelOptions{false});
        benchmark::DoNotOptimize(o.data());
    }
    state.SetItemsProcessed(state.iterations() * 4 * tokens * d * len);
}
BENCHMARK(BM_AttentionScores)->Arg(64)->Arg(256)->Arg(1024);

void
BM_LayerNorm(benchmark::State &state)
{
    const auto width = static_cast<std::int64_t>(state.range(0));
    Rng rng(4);
    const Tensor x = Tensor::randomNormal({64, width}, rng, 1.0);
    Tensor gain({width}), bias({width});
    for (std::int64_t i = 0; i < width; ++i)
        gain.at(i) = 1.0f;
    for (auto _ : state) {
        Tensor y = layerNorm(x, gain, bias, KernelOptions{false});
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 64 * width);
}
BENCHMARK(BM_LayerNorm)->Arg(256)->Arg(1024);

} // namespace

BENCHMARK_MAIN();
