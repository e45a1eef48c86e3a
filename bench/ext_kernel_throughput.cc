/**
 * @file
 * Extension: kernel-layer throughput — blocked/packed fp32 and int8
 * VNNI-style matmuls vs their retained scalar references, across
 * thread counts, plus a decode-GEMV (m = 1) study of the fused int8
 * dequant-GEMV and the thread pool's low-latency dispatch path.
 *
 * Real measured host performance (not modeled). Four sections:
 *
 *  1. fp32 GEMM sweep: prefill- and decode-shaped GEMMs through the
 *     packed-tile parallel kernel at 1/2/4/8 threads, each verified
 *     bit-identical to scalarMatmul (DESIGN.md §7).
 *  2. int8 GEMM sweep: the same shapes through matmulInt8, verified
 *     bit-identical to scalarMatmulInt8 (the §12 contract — the int8
 *     grid changes numerics vs fp32 by design, but the int8 path
 *     itself is deterministic and reference-pinned).
 *  3. m = 1 decode GEMV: fp32-packed vs fused int8 dequant-GEMV
 *     tokens/s on weight-streaming shapes, with dispatch-latency
 *     stats from the pool's ParallelObserver hook. Hard asserts:
 *     int8 fused >= 1.5x fp32 tokens/s single-thread, and the
 *     low-latency multi-thread path never loses to single-thread.
 *  4. attention per kernel tier, single-thread, on the serving
 *     models' heads (4 x 32): decode batches and 128-token prefill
 *     chunks over growing contexts. Hard assert: every tier's output
 *     memcmp-equals scalarAttention on every timed configuration.
 *
 * Artifacts: BENCH_kernel_throughput.json holds only deterministic
 * facts (shapes, thread counts, bit-identity, packed byte counts,
 * assert outcomes) and is byte-stable run to run — CI cmp's it.
 * BENCH_kernel_throughput_timing.json holds the wall-clock numbers
 * (GFLOP/s, tokens/s, dispatch latencies, attention times) keyed the
 * same way, plus
 * the kernel tier CPUID selected (sse2 or avx512-vnni), which is a
 * fact of the host rather than of the code and so stays out of the
 * deterministic artifact.
 */

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "runtime/executor.hh"
#include "runtime/kernels.hh"
#include "runtime/kv_cache.hh"

namespace {

using namespace lia;
using namespace lia::runtime;
using Clock = std::chrono::steady_clock;

struct Shape
{
    std::int64_t m, k, n;
    const char *kind;
};

const std::vector<Shape> kShapes = {
    {1, 512, 2048, "decode"},    {8, 512, 2048, "decode batch"},
    {128, 512, 512, "prefill"},  {128, 512, 2048, "prefill ffn"},
    {256, 1024, 1024, "prefill"},
};

/** The m = 1 section's weight-streaming shapes: the big one is the
 *  assert anchor (64 MB of fp32 weights vs 16 MB int8 — decode GEMV
 *  is memory-bound, which is exactly the int8 win). */
const std::vector<Shape> kGemvShapes = {
    {1, 512, 2048, "gemv small"},
    {1, 2048, 8192, "gemv large"},
};

const std::vector<int> kThreadCounts = {1, 2, 4, 8};

/** Bit-for-bit tensor equality. */
bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       sizeof(float) *
                           static_cast<std::size_t>(a.numel())) == 0;
}

/** Seconds per call, timed over enough reps to pass @p min_time. */
template <typename Fn>
double
timeIt(const Fn &fn, double min_time = 0.15)
{
    fn();  // warm-up (and first-touch)
    int reps = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
        fn();
        ++reps;
        elapsed = std::chrono::duration<double>(Clock::now() - t0)
                      .count();
    } while (elapsed < min_time);
    return elapsed / reps;
}

/** Dispatch-latency stats through the pool's observer hook: one
 *  onParallelFor per top-level loop, so mean wall time per dispatched
 *  loop is exactly the decode-GEMV dispatch cost under study. */
struct DispatchStats : base::ParallelObserver
{
    std::int64_t count = 0;
    double total = 0, minSec = std::numeric_limits<double>::infinity(),
           maxSec = 0;

    void onParallelFor(double seconds) override
    {
        ++count;
        total += seconds;
        minSec = std::min(minSec, seconds);
        maxSec = std::max(maxSec, seconds);
    }

    double meanUs() const
    {
        return count > 0 ? 1e6 * total / static_cast<double>(count)
                         : 0.0;
    }
};

struct Point
{
    Shape shape{};
    const char *kernel = "";  //!< "fp32_packed" | "int8"
    int threads = 0;          //!< 0 = scalar reference
    double gflops = 0;
    double speedup = 1.0;     //!< vs the matching scalar reference
    bool exact = true;        //!< bit-identical to that reference
};

std::string
pointKey(const Point &p)
{
    std::ostringstream out;
    out << "{\"m\": " << p.shape.m << ", \"k\": " << p.shape.k
        << ", \"n\": " << p.shape.n << ", \"kind\": \"" << p.shape.kind
        << "\", \"kernel\": \"" << p.kernel
        << "\", \"threads\": " << p.threads;
    return out.str();
}

/** One attention configuration: a decode batch or a prefill chunk. */
struct AttentionShape
{
    std::int64_t batch, tokens, length;  //!< length includes tokens
    const char *kind;
};

const std::vector<AttentionShape> kAttentionShapes = {
    {3, 1, 250, "decode"},    {8, 1, 300, "decode"},
    {1, 128, 128, "prefill"}, {1, 128, 512, "prefill"},
    {1, 128, 1000, "prefill"},
};

struct AttentionPoint
{
    AttentionShape shape{};
    const char *tier = "";
    double usPerCall = 0;
    double speedupVsSse2 = 1.0;
};

struct GemvPoint
{
    Shape shape{};
    const char *kernel = "";
    int threads = 1;
    double tokensPerS = 0;
    double dispatchMeanUs = 0;  //!< 0 when the pool ran inline
    bool exact = true;
};

} // namespace

int
main()
{
    std::cout << "Kernel throughput: packed/blocked fp32 + int8 "
                 "parallel matmul vs scalar references\n"
              << "(host threads available: "
              << base::ThreadPool::defaultThreadCount()
              << ", kernel tier: " << activeKernelTier().name << ")\n\n";

    const KernelOptions scalarOpts{false, nullptr};
    std::vector<Point> points;
    bool all_exact = true;

    // --- Section 1+2: GEMM sweeps, fp32 then int8 -------------------
    TextTable table({"shape", "kind", "config", "GFLOP/s", "speedup",
                     "exact"});
    for (const Shape &s : kShapes) {
        Rng rng(7 + s.m);
        const Tensor a = Tensor::randomNormal({s.m, s.k}, rng, 1.0);
        const Tensor b = Tensor::randomNormal({s.k, s.n}, rng, 1.0);
        const double flops = 2.0 * static_cast<double>(s.m) *
                             static_cast<double>(s.k) *
                             static_cast<double>(s.n);
        const std::string dims = std::to_string(s.m) + "x" +
                                 std::to_string(s.k) + "x" +
                                 std::to_string(s.n);

        const Tensor ref = scalarMatmul(a, b, Tensor(), scalarOpts);
        const double scalar_s = timeIt(
            [&] { scalarMatmul(a, b, Tensor(), scalarOpts); });
        Point base;
        base.shape = s;
        base.kernel = "fp32_packed";
        base.gflops = flops / scalar_s / 1e9;
        points.push_back(base);
        table.addRow({dims, s.kind, "fp32 scalar",
                      fmtDouble(base.gflops, 2), "1.00", "ref"});

        const PackedMatrix packed = packColumns(b);
        for (const int threads : kThreadCounts) {
            base::ThreadPool pool(threads);
            const KernelOptions opts{false, &pool};
            const Tensor out = matmulPacked(a, packed, Tensor(), opts);
            Point p;
            p.shape = s;
            p.kernel = "fp32_packed";
            p.threads = threads;
            p.exact = bitIdentical(out, ref);
            all_exact = all_exact && p.exact;
            const double t = timeIt(
                [&] { matmulPacked(a, packed, Tensor(), opts); });
            p.gflops = flops / t / 1e9;
            p.speedup = scalar_s / t;
            table.addRow({dims, s.kind,
                          "fp32 packed x" + std::to_string(threads),
                          fmtDouble(p.gflops, 2),
                          fmtDouble(p.speedup, 2),
                          p.exact ? "yes" : "NO"});
            points.push_back(p);
        }

        // Int8: same shape against the int8-packed operand, pinned to
        // the retained scalar int8 reference (not to fp32 — the
        // quantization grid changes numerics by design).
        const PackedInt8Matrix packed8 = packColumnsInt8(b);
        const Tensor ref8 =
            scalarMatmulInt8(a, packed8, Tensor(), scalarOpts);
        const double scalar8_s = timeIt(
            [&] { scalarMatmulInt8(a, packed8, Tensor(), scalarOpts); });
        Point base8;
        base8.shape = s;
        base8.kernel = "int8";
        base8.gflops = flops / scalar8_s / 1e9;
        points.push_back(base8);
        table.addRow({dims, s.kind, "int8 scalar",
                      fmtDouble(base8.gflops, 2), "1.00", "ref"});
        for (const int threads : kThreadCounts) {
            base::ThreadPool pool(threads);
            const KernelOptions opts{false, &pool};
            const Tensor out = matmulInt8(a, packed8, Tensor(), opts);
            Point p;
            p.shape = s;
            p.kernel = "int8";
            p.threads = threads;
            p.exact = bitIdentical(out, ref8);
            all_exact = all_exact && p.exact;
            const double t = timeIt(
                [&] { matmulInt8(a, packed8, Tensor(), opts); });
            p.gflops = flops / t / 1e9;
            p.speedup = scalar8_s / t;
            table.addRow({dims, s.kind,
                          "int8 x" + std::to_string(threads),
                          fmtDouble(p.gflops, 2),
                          fmtDouble(p.speedup, 2),
                          p.exact ? "yes" : "NO"});
            points.push_back(p);
        }
        table.addSeparator();
    }
    table.print(std::cout);
    LIA_ASSERT(all_exact, "a blocked/parallel kernel diverged from "
                          "its scalar reference");

    // --- Section 3: m = 1 decode GEMV -------------------------------
    //
    // Where serving tokens/s actually lives: one hidden-state row
    // against a big weight matrix, repeated every decode step. Timed
    // as fp32-packed vs fused int8 dequant-GEMV per thread count,
    // with the pool's dispatch latency observed per loop.
    std::cout << "\nDecode GEMV (m = 1): fp32 packed vs fused int8 "
                 "dequant-GEMV\n\n";
    TextTable gtable({"shape", "config", "tokens/s", "dispatch us",
                      "vs fp32 x1", "exact"});
    std::vector<GemvPoint> gemv;
    std::vector<std::string> gemvFacts;
    bool gemv_exact = true;
    // The multi-thread-never-loses assert only ranges over pools the
    // host can actually run concurrently: on an h-core machine a pool
    // of more than h threads time-shares cores, which measures the OS
    // scheduler, not our dispatch path (oversubscribed configs are
    // still timed and reported, just not asserted on).
    const int hw_cores = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
    double assert_int8_vs_fp32 = 0;   // large shape, single thread
    double assert_multi_vs_one = 0;   // large shape, int8 best multi
    bool multi_in_budget = false;     // any multi config within cores
    for (const Shape &s : kGemvShapes) {
        Rng rng(977 + s.k);
        const Tensor a = Tensor::randomNormal({1, s.k}, rng, 1.0);
        const Tensor b = Tensor::randomNormal({s.k, s.n}, rng, 1.0);
        const PackedMatrix packed = packColumns(b);
        const PackedInt8Matrix packed8 = packColumnsInt8(b);
        const Tensor ref = scalarMatmul(a, b, Tensor(), scalarOpts);
        const Tensor ref8 =
            scalarMatmulInt8(a, packed8, Tensor(), scalarOpts);
        const std::string dims = "1x" + std::to_string(s.k) + "x" +
                                 std::to_string(s.n);
        const bool large = std::strcmp(s.kind, "gemv large") == 0;

        double fp32_x1 = 0, int8_x1 = 0, int8_best_multi = 0;
        for (const int threads : kThreadCounts) {
            base::ThreadPool pool(threads);
            const KernelOptions opts{false, &pool};
            for (const bool int8 : {false, true}) {
                const auto run = [&] {
                    return int8
                               ? matmulInt8(a, packed8, Tensor(), opts)
                               : matmulPacked(a, packed, Tensor(),
                                              opts);
                };
                GemvPoint p;
                p.shape = s;
                p.kernel = int8 ? "int8_fused" : "fp32_packed";
                p.threads = threads;
                p.exact = bitIdentical(run(), int8 ? ref8 : ref);
                gemv_exact = gemv_exact && p.exact;
                DispatchStats stats;
                pool.setObserver(&stats);
                const double t = timeIt([&] { run(); });
                pool.setObserver(nullptr);
                p.tokensPerS = 1.0 / t;
                p.dispatchMeanUs = stats.meanUs();
                if (int8 && threads == 1)
                    int8_x1 = p.tokensPerS;
                if (int8 && threads > 1 && threads <= hw_cores)
                    int8_best_multi =
                        std::max(int8_best_multi, p.tokensPerS);
                if (!int8 && threads == 1)
                    fp32_x1 = p.tokensPerS;
                const double vs_fp32_x1 =
                    fp32_x1 > 0 ? p.tokensPerS / fp32_x1 : 1.0;
                gtable.addRow(
                    {dims,
                     std::string(int8 ? "int8 fused" : "fp32 packed") +
                         " x" + std::to_string(threads),
                     fmtDouble(p.tokensPerS, 1),
                     threads > 1 ? fmtDouble(p.dispatchMeanUs, 1)
                                 : std::string("inline"),
                     fmtDouble(vs_fp32_x1, 2), p.exact ? "yes" : "NO"});
                gemv.push_back(p);
            }
        }
        gtable.addSeparator();
        if (large) {
            assert_int8_vs_fp32 = int8_x1 / fp32_x1;
            multi_in_budget = int8_best_multi > 0;
            assert_multi_vs_one =
                multi_in_budget ? int8_best_multi / int8_x1 : 1.0;
        }

        std::ostringstream fact;
        fact << "    {\"m\": 1, \"k\": " << s.k << ", \"n\": " << s.n
             << ", \"kind\": \"" << s.kind << "\", \"fp32_pack_bytes\": "
             << static_cast<long long>(packed.fp32Bytes())
             << ", \"int8_pack_bytes\": "
             << static_cast<long long>(packed8.int8Bytes()) << "}";
        gemvFacts.push_back(fact.str());
    }
    gtable.print(std::cout);
    LIA_ASSERT(gemv_exact,
               "a decode-GEMV kernel diverged from its reference");

    // The acceptance bars (ISSUE 9): the fused int8 dequant-GEMV must
    // beat fp32-packed by >= 1.5x single-thread on the memory-bound
    // shape (it streams a quarter of the bytes), and the low-latency
    // dispatch path must make multi-threading at least free at m = 1.
    std::cout << "\nint8 fused vs fp32 packed (x1, large): "
              << fmtDouble(assert_int8_vs_fp32, 2) << "x\n";
    if (multi_in_budget)
        std::cout << "int8 best multi-thread vs x1 (large, <= "
                  << hw_cores << " cores): "
                  << fmtDouble(assert_multi_vs_one, 2) << "x\n";
    else
        std::cout << "int8 multi-thread vs x1: no multi-thread config "
                     "fits this host's " << hw_cores
                  << " core(s) — speedup assert is vacuous\n";
    LIA_ASSERT(assert_int8_vs_fp32 >= 1.5,
               "fused int8 dequant-GEMV fell under 1.5x fp32 packed "
               "at m = 1 single-thread: ", assert_int8_vs_fp32);
    LIA_ASSERT(assert_multi_vs_one >= 1.0,
               "low-latency multi-thread decode GEMV lost to "
               "single-thread: ", assert_multi_vs_one);

    // --- Section 4: attention per kernel tier ------------------------
    //
    // Single-thread, so the numbers are the tier's kernel alone. Each
    // tier the host runs is timed, and each must equal scalarAttention
    // bit for bit on every configuration it is timed on.
    std::cout << "\nAttention per kernel tier (4 heads x 32, BF16, "
                 "one thread)\n\n";
    TextTable atable({"kind", "batch", "tokens", "length", "tier",
                      "us/call", "vs sse2", "exact"});
    std::vector<const KernelTier *> tiers{&sse2KernelTier()};
    if (avx512KernelTier() != nullptr)
        tiers.push_back(avx512KernelTier());
    std::vector<AttentionPoint> attentionPoints;
    constexpr std::int64_t kHeads = 4, kHeadDim = 32;
    constexpr std::int64_t kWidth = kHeads * kHeadDim;
    const KernelOptions attentionOpts{true, nullptr};
    for (const AttentionShape &s : kAttentionShapes) {
        Rng rng(31 + s.length);
        const Tensor q = Tensor::randomNormal(
            {s.batch * s.tokens, kWidth}, rng, 1.0);
        const std::size_t cache =
            static_cast<std::size_t>(s.length * kWidth);
        std::vector<std::vector<float>> k(
            static_cast<std::size_t>(s.batch), std::vector<float>(cache));
        std::vector<std::vector<float>> v = k;
        std::vector<KvLayerView> views;
        for (std::size_t b = 0; b < k.size(); ++b) {
            for (std::size_t e = 0; e < cache; ++e) {
                k[b][e] = static_cast<float>(rng.normal(0.0, 1.0));
                v[b][e] = static_cast<float>(rng.normal(0.0, 1.0));
            }
            views.push_back(
                {k[b].data(), v[b].data(), s.length, kWidth, s.tokens});
        }
        const Tensor ref = scalarAttention(q, views, kHeads, kHeads,
                                           kHeadDim, attentionOpts);
        double sse2_us = 0;
        for (const KernelTier *tier : tiers) {
            const auto run = [&] {
                return tier->attention(q, views, kHeads, kHeads, kHeadDim,
                                       attentionOpts);
            };
            LIA_ASSERT(bitIdentical(run(), ref), "attention on the ",
                       tier->name, " tier diverged from scalarAttention at ",
                       s.kind, " batch ", s.batch, " length ", s.length);
            AttentionPoint p;
            p.shape = s;
            p.tier = tier->name;
            p.usPerCall = 1e6 * timeIt([&] { run(); });
            if (tier == &sse2KernelTier())
                sse2_us = p.usPerCall;
            p.speedupVsSse2 = sse2_us / p.usPerCall;
            atable.addRow({s.kind, std::to_string(s.batch),
                           std::to_string(s.tokens),
                           std::to_string(s.length), tier->name,
                           fmtDouble(p.usPerCall, 1),
                           fmtDouble(p.speedupVsSse2, 2), "yes"});
            attentionPoints.push_back(p);
        }
    }
    atable.print(std::cout);

    // End-to-end greedy decode on the differential-test model: the
    // wall-clock the differential suite pays per forward, so kernel
    // regressions are visible next to the GEMM numbers.
    const auto m = model::tinyOpt(32, 2, 2, 256, 101);
    Rng wrng(1234);
    CooperativeExecutor exec(
        hw::sprA100(), TransformerWeights::random(m, wrng), {});
    const std::vector<std::vector<std::int64_t>> prompts = {
        {1, 4, 7, 10, 13, 16, 19, 22},
        {8, 15, 22, 29, 36, 43, 50, 57},
    };
    constexpr std::int64_t l_out = 16;
    const double gen_s = timeIt([&] { exec.generate(prompts, l_out); });
    const double tokens_per_s =
        static_cast<double>(prompts.size()) *
        static_cast<double>(l_out) / gen_s;
    std::cout << "\nend-to-end greedy decode (" << m.name
              << "): " << fmtDouble(tokens_per_s, 1)
              << " tokens/s at default threads\n";

    // Deterministic artifact: every fact here is a pure function of
    // the code and the machine's thread count — CI runs the bench
    // twice and cmp's the bytes.
    {
        std::ostringstream json;
        json << "{\n  \"bench\": \"kernel_throughput\",\n"
             << "  \"default_threads\": "
             << base::ThreadPool::defaultThreadCount() << ",\n"
             << "  \"points\": [\n";
        for (std::size_t i = 0; i < points.size(); ++i)
            json << "    " << pointKey(points[i]) << ", \"bit_identical\": "
                 << (points[i].exact ? "true" : "false") << "}"
                 << (i + 1 < points.size() ? ",\n" : "\n");
        json << "  ],\n  \"gemv_points\": [\n";
        for (std::size_t i = 0; i < gemv.size(); ++i)
            json << "    " << pointKey(Point{gemv[i].shape,
                                             gemv[i].kernel,
                                             gemv[i].threads})
                 << ", \"bit_identical\": "
                 << (gemv[i].exact ? "true" : "false") << "}"
                 << (i + 1 < gemv.size() ? ",\n" : "\n");
        json << "  ],\n  \"gemv_shapes\": [\n";
        for (std::size_t i = 0; i < gemvFacts.size(); ++i)
            json << gemvFacts[i]
                 << (i + 1 < gemvFacts.size() ? ",\n" : "\n");
        json << "  ],\n"
             << "  \"asserts\": {\"all_gemm_bit_identical\": "
             << (all_exact ? "true" : "false")
             << ", \"all_gemv_bit_identical\": "
             << (gemv_exact ? "true" : "false")
             << ", \"int8_fused_ge_1_5x_fp32_x1\": true"
             << ", \"multi_thread_in_core_budget\": "
             << (multi_in_budget ? "true" : "false")
             << ", \"multi_thread_ge_1_0x\": true}\n}\n";
        std::ofstream file("BENCH_kernel_throughput.json");
        file << json.str();
        std::cout << "\nwrote BENCH_kernel_throughput.json\n";
    }

    // Timing artifact: the wall-clock numbers, keyed like the
    // deterministic points (valid JSON, but not byte-stable).
    {
        std::ostringstream json;
        json << "{\n  \"bench\": \"kernel_throughput_timing\",\n"
             << "  \"kernel_tier\": \"" << activeKernelTier().name
             << "\",\n"
             << "  \"default_threads\": "
             << base::ThreadPool::defaultThreadCount() << ",\n"
             << "  \"points\": [\n";
        for (std::size_t i = 0; i < points.size(); ++i)
            json << "    " << pointKey(points[i])
                 << ", \"gflops\": " << points[i].gflops
                 << ", \"speedup_vs_scalar\": " << points[i].speedup
                 << "}" << (i + 1 < points.size() ? ",\n" : "\n");
        json << "  ],\n  \"gemv_points\": [\n";
        for (std::size_t i = 0; i < gemv.size(); ++i)
            json << "    " << pointKey(Point{gemv[i].shape,
                                             gemv[i].kernel,
                                             gemv[i].threads})
                 << ", \"tokens_per_s\": " << gemv[i].tokensPerS
                 << ", \"dispatch_mean_us\": " << gemv[i].dispatchMeanUs
                 << "}" << (i + 1 < gemv.size() ? ",\n" : "\n");
        json << "  ],\n  \"gemv_ratios\": {"
             << "\"int8_fused_vs_fp32_x1_large\": "
             << assert_int8_vs_fp32
             << ", \"int8_multi_vs_x1_large\": " << assert_multi_vs_one
             << "},\n  \"attention_points\": [\n";
        for (std::size_t i = 0; i < attentionPoints.size(); ++i) {
            const AttentionPoint &p = attentionPoints[i];
            json << "    {\"kind\": \"" << p.shape.kind
                 << "\", \"batch\": " << p.shape.batch
                 << ", \"tokens\": " << p.shape.tokens
                 << ", \"length\": " << p.shape.length
                 << ", \"tier\": \"" << p.tier
                 << "\", \"us_per_call\": " << p.usPerCall
                 << ", \"speedup_vs_sse2\": " << p.speedupVsSse2 << "}"
                 << (i + 1 < attentionPoints.size() ? ",\n" : "\n");
        }
        json << "  ],\n"
             << "  \"decode_e2e\": {\"model\": \"" << m.name
             << "\", \"tokens_per_s\": " << tokens_per_s
             << ", \"seconds_per_generate\": " << gen_s << "}\n}\n";
        std::ofstream file("BENCH_kernel_throughput_timing.json");
        file << json.str();
        std::cout << "wrote BENCH_kernel_throughput_timing.json\n";
    }
    return 0;
}
