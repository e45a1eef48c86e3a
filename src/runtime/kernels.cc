#include "runtime/kernels.hh"

#include "obs/profiler.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#if defined(__SSE2__) || defined(_M_X64)
#define LIA_KERNEL_SSE2 1
#include <emmintrin.h>
#endif

#include "base/logging.hh"
#include "runtime/bf16.hh"
#include "runtime/kernels_avx512.hh"
#include "runtime/kv_cache.hh"

namespace lia {
namespace runtime {

namespace {

/**
 * Work-sized dispatch (DESIGN.md §7). Each loop states a rough
 * single-core cost per item in nanoseconds. A loop whose whole cost
 * fits in one chunk runs inline; otherwise chunks hold at least
 * kChunkNs of work, loops up to kLowLatencyNs take the pool's
 * low-latency path and only longer ones — which amortize a futex wake
 * and need no spinning workers after them — the blocking one. The
 * widest loop of a decode pass at m = B <= 8, the B = 8 LM head of a
 * d = 128, 4096-token model, is ~0.4 ms on the SSE2 tier, so a decode
 * pass never parks on the blocking dispatch. The estimates only decide
 * where a loop runs, never what it computes: every kernel's units are
 * self-contained, so any chunking gives the same bits.
 */
constexpr double kChunkNs = 4000;
constexpr double kLowLatencyNs = 1000000;

/** Elementwise passes (add, ReLU, BF16 rounding): ns per element. */
constexpr double kElementNs = 0.25;

template <typename Body>
void
parallelRun(const KernelOptions &opts, std::int64_t n, double item_ns,
            const Body &body)
{
    if (n <= 0)
        return;
    const double total = item_ns * static_cast<double>(n);
    if (opts.pool == nullptr || total <= kChunkNs) {
        body(static_cast<std::int64_t>(0), n);
        return;
    }
    const auto grain = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(kChunkNs / item_ns));
    if (total <= kLowLatencyNs)
        opts.pool->parallelForLowLatency(n, grain, body);
    else
        opts.pool->parallelFor(n, grain, body);
}

/**
 * BF16-round @p n floats in place: roundToBf16's integer steps (add
 * 0x7FFF plus the kept LSB, clear the low half), four lanes at a time
 * on SSE2, so the bits are the scalar function's.
 */
void
roundBf16Span(float *p, std::int64_t n)
{
    std::int64_t i = 0;
#if LIA_KERNEL_SSE2
    const __m128i one = _mm_set1_epi32(1);
    const __m128i half = _mm_set1_epi32(0x7FFF);
    const __m128i high = _mm_set1_epi32(static_cast<int>(0xFFFF0000u));
    for (; i + 4 <= n; i += 4) {
        const __m128i bits = _mm_castps_si128(_mm_loadu_ps(p + i));
        const __m128i lsb = _mm_and_si128(_mm_srli_epi32(bits, 16), one);
        const __m128i sum = _mm_add_epi32(bits, _mm_add_epi32(half, lsb));
        _mm_storeu_ps(p + i, _mm_castsi128_ps(_mm_and_si128(sum, high)));
    }
#endif
    for (; i < n; ++i)
        p[i] = roundToBf16(p[i]);
}

void
maybeRound(Tensor &t, const KernelOptions &opts)
{
    if (!opts.bf16Rounding)
        return;
    float *p = t.data();
    // Elementwise, so any chunking rounds identically.
    parallelRun(opts, t.numel(), kElementNs,
                [p](std::int64_t i0, std::int64_t i1) {
                    roundBf16Span(p + i0, i1 - i0);
                });
}

/** BF16-round columns [j0, j1) of every row of an (m, n) output. */
void
roundColumns(float *c, std::int64_t m, std::int64_t n, std::int64_t j0,
             std::int64_t j1)
{
    for (std::int64_t i = 0; i < m; ++i)
        roundBf16Span(c + i * n + j0, j1 - j0);
}

/**
 * The blocked inner kernel: accumulate @p MR rows of A against one
 * packed column tile, k ascending — exactly the scalar reference's
 * per-element operation order. MR is a compile-time constant so the
 * accumulators live in registers.
 *
 * On x86-64 the kernel is written with explicit SSE2 intrinsics: the
 * lane-wise mulps/addps are the IEEE operations the scalar reference
 * performs per element (SSE2 has no FMA, so there is no contraction
 * asymmetry either), keeping results bit-identical while sidestepping
 * GCC's SLP vectoriser, which otherwise shuffles the accumulator tile
 * across rows and spills it to the stack every iteration.
 */
template <int MR>
void
packedBlock(const float *pa, std::int64_t lda, const float *tile,
            std::int64_t k, const float *pbias, std::int64_t j0,
            std::int64_t jw, float *pc, std::int64_t n)
{
#if LIA_KERNEL_SSE2
    __m128 acc[MR][2];  // two 4-lane vectors span the 8-wide tile
    if (pbias != nullptr) {
        float init[kPackTileWidth];
        for (std::int64_t jj = 0; jj < kPackTileWidth; ++jj)
            init[jj] = jj < jw ? pbias[j0 + jj] : 0.0f;
        for (int r = 0; r < MR; ++r) {
            acc[r][0] = _mm_loadu_ps(init);
            acc[r][1] = _mm_loadu_ps(init + 4);
        }
    } else {
        for (int r = 0; r < MR; ++r)
            acc[r][0] = acc[r][1] = _mm_setzero_ps();
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
        const float *bk = tile + kk * kPackTileWidth;
        const __m128 b0 = _mm_loadu_ps(bk);
        const __m128 b1 = _mm_loadu_ps(bk + 4);
        for (int r = 0; r < MR; ++r) {
            const __m128 av = _mm_set1_ps(pa[r * lda + kk]);
            acc[r][0] = _mm_add_ps(acc[r][0], _mm_mul_ps(av, b0));
            acc[r][1] = _mm_add_ps(acc[r][1], _mm_mul_ps(av, b1));
        }
    }
    if (jw == kPackTileWidth) {
        for (int r = 0; r < MR; ++r) {
            _mm_storeu_ps(pc + r * n + j0, acc[r][0]);
            _mm_storeu_ps(pc + r * n + j0 + 4, acc[r][1]);
        }
    } else {
        for (int r = 0; r < MR; ++r) {
            float tmp[kPackTileWidth];
            _mm_storeu_ps(tmp, acc[r][0]);
            _mm_storeu_ps(tmp + 4, acc[r][1]);
            for (std::int64_t jj = 0; jj < jw; ++jj)
                pc[r * n + j0 + jj] = tmp[jj];
        }
    }
#else
    float acc[MR][kPackTileWidth];
    for (int r = 0; r < MR; ++r) {
        for (std::int64_t jj = 0; jj < kPackTileWidth; ++jj)
            acc[r][jj] =
                (pbias != nullptr && jj < jw) ? pbias[j0 + jj] : 0.0f;
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
        const float *bk = tile + kk * kPackTileWidth;
        for (int r = 0; r < MR; ++r) {
            const float av = pa[r * lda + kk];
            for (std::int64_t jj = 0; jj < kPackTileWidth; ++jj)
                acc[r][jj] += av * bk[jj];
        }
    }
    for (int r = 0; r < MR; ++r)
        for (std::int64_t jj = 0; jj < jw; ++jj)
            pc[r * n + j0 + jj] = acc[r][jj];
#endif
}

// --- Int8 path -------------------------------------------------------
//
// Every int8 kernel is built from three shared pieces: one activation
// quantizer, one exact int32 accumulation (order-free), and one
// dequant expression. Sharing them is the whole §12 determinism
// argument — the SIMD paths can reorder the integer sums freely and
// still match scalarMatmulInt8 bit for bit.

/**
 * Quantize one activation row: symmetric absmax, q = round(v * 127 /
 * absmax) clamped to [-127, 127]; an all-zero row gets scale 0 and
 * all-zero codes. @p out must span 2 * kPairs entries and arrive
 * zeroed — the k-odd padding byte stays 0, contributing exact integer
 * zeros. Returns the row scale (absmax / 127).
 */
float
quantizeRowInt8(const float *row, std::int64_t k, std::int8_t *out)
{
    float absmax = 0.0f;
    for (std::int64_t i = 0; i < k; ++i)
        absmax = std::max(absmax, std::fabs(row[i]));
    if (absmax == 0.0f)
        return 0.0f;
    const float inv = 127.0f / absmax;
    for (std::int64_t i = 0; i < k; ++i) {
        const long q = std::lrintf(row[i] * inv);
        out[i] = static_cast<std::int8_t>(
            std::clamp(q, -127l, 127l));
    }
    return absmax / 127.0f;
}

/**
 * The shared dequant expression: every int8 path maps an int32 sum to
 * fp32 through exactly these operations (cvtepi32_ps and
 * static_cast<float> both round to nearest even, so the SIMD variant
 * is the same function).
 */
inline float
dequantInt8(std::int32_t acc, float combined_scale, const float *pbias,
            std::int64_t j)
{
    float v = static_cast<float>(acc) * combined_scale;
    if (pbias != nullptr)
        v += pbias[j];
    return v;
}

/**
 * One quantized row against one int8 tile, scalar: the canonical
 * accumulation the SIMD blocks reproduce (exactly — integer sums are
 * order-free), and the fallback for partial tiles and non-SSE2
 * builds. @p aq spans 2 * kPairs codes (zero-padded).
 */
void
int8TileRowScalar(const std::int8_t *aq, float sa,
                  const PackedInt8Matrix &b, std::int64_t jt,
                  const float *pbias, float *crow)
{
    const std::int64_t kp = b.kPairs();
    const std::int8_t *tile =
        b.data.data() + jt * kp * 2 * kPackTileWidth;
    const std::int64_t j0 = jt * kPackTileWidth;
    const std::int64_t jw = std::min(kPackTileWidth, b.n - j0);
    const float combined =
        sa * b.scales[static_cast<std::size_t>(jt)];
    for (std::int64_t jj = 0; jj < jw; ++jj) {
        std::int32_t acc = 0;
        for (std::int64_t kk2 = 0; kk2 < kp; ++kk2) {
            const std::int8_t *pair =
                tile + kk2 * 2 * kPackTileWidth + jj * 2;
            acc += static_cast<std::int32_t>(aq[2 * kk2]) * pair[0] +
                   static_cast<std::int32_t>(aq[2 * kk2 + 1]) * pair[1];
        }
        crow[j0 + jj] = dequantInt8(acc, combined, pbias, j0 + jj);
    }
}

#if LIA_KERNEL_SSE2

/** Broadcast one activation k-pair into all four 16-bit lane pairs. */
inline __m128i
int8PairBroadcast(const std::int8_t *aq, std::int64_t kk2)
{
    const auto a0 = static_cast<std::uint16_t>(
        static_cast<std::int16_t>(aq[2 * kk2]));
    const auto a1 = static_cast<std::uint16_t>(
        static_cast<std::int16_t>(aq[2 * kk2 + 1]));
    return _mm_set1_epi32(static_cast<int>(
        (static_cast<std::uint32_t>(a1) << 16) | a0));
}

/**
 * MR quantized rows x one *full* int8 tile: 16 weight bytes per
 * k-pair, sign-extended to 16 bits, pmaddwd against the broadcast
 * activation pair — the SSE2 spelling of the VNNI dot-product step.
 * Accumulation is exact int32, dequant is the shared expression.
 */
template <int MR>
void
int8Block(const std::int8_t *aq, std::int64_t lda, const float *sa,
          const std::int8_t *tile, std::int64_t kp, float sw,
          const float *pbias, std::int64_t j0, float *pc,
          std::int64_t n)
{
    const __m128i zero = _mm_setzero_si128();
    __m128i acc[MR][2];
    for (int r = 0; r < MR; ++r)
        acc[r][0] = acc[r][1] = zero;
    for (std::int64_t kk2 = 0; kk2 < kp; ++kk2) {
        const __m128i w8 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(tile + kk2 * 16));
        const __m128i sign = _mm_cmpgt_epi8(zero, w8);
        const __m128i lo = _mm_unpacklo_epi8(w8, sign);
        const __m128i hi = _mm_unpackhi_epi8(w8, sign);
        for (int r = 0; r < MR; ++r) {
            const __m128i av = int8PairBroadcast(aq + r * lda, kk2);
            acc[r][0] =
                _mm_add_epi32(acc[r][0], _mm_madd_epi16(lo, av));
            acc[r][1] =
                _mm_add_epi32(acc[r][1], _mm_madd_epi16(hi, av));
        }
    }
    for (int r = 0; r < MR; ++r) {
        const __m128 scale = _mm_set1_ps(sa[r] * sw);
        __m128 v0 = _mm_mul_ps(_mm_cvtepi32_ps(acc[r][0]), scale);
        __m128 v1 = _mm_mul_ps(_mm_cvtepi32_ps(acc[r][1]), scale);
        if (pbias != nullptr) {
            v0 = _mm_add_ps(v0, _mm_loadu_ps(pbias + j0));
            v1 = _mm_add_ps(v1, _mm_loadu_ps(pbias + j0 + 4));
        }
        _mm_storeu_ps(pc + r * n + j0, v0);
        _mm_storeu_ps(pc + r * n + j0 + 4, v1);
    }
}

/**
 * The wide fused dequant-GEMV inner kernel: one quantized row against
 * four consecutive *full* tiles (32 output columns) in one k-sweep —
 * eight int32 accumulators stay in registers and each activation
 * broadcast is amortized over all four tiles. This is the m = 1
 * decode kernel; its per-tile integer math is the same as
 * int8Block<1>'s, so results are identical either way.
 */
void
int8GemvWide4(const std::int8_t *aq, float sa,
              const PackedInt8Matrix &b, std::int64_t jt0,
              const float *pbias, float *crow)
{
    const std::int64_t kp = b.kPairs();
    const std::int8_t *tiles[4];
    for (int t = 0; t < 4; ++t)
        tiles[t] = b.data.data() + (jt0 + t) * kp * 2 * kPackTileWidth;
    const __m128i zero = _mm_setzero_si128();
    __m128i acc[4][2];
    for (int t = 0; t < 4; ++t)
        acc[t][0] = acc[t][1] = zero;
    for (std::int64_t kk2 = 0; kk2 < kp; ++kk2) {
        const __m128i av = int8PairBroadcast(aq, kk2);
        for (int t = 0; t < 4; ++t) {
            const __m128i w8 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(tiles[t] + kk2 * 16));
            const __m128i sign = _mm_cmpgt_epi8(zero, w8);
            const __m128i lo = _mm_unpacklo_epi8(w8, sign);
            const __m128i hi = _mm_unpackhi_epi8(w8, sign);
            acc[t][0] =
                _mm_add_epi32(acc[t][0], _mm_madd_epi16(lo, av));
            acc[t][1] =
                _mm_add_epi32(acc[t][1], _mm_madd_epi16(hi, av));
        }
    }
    for (int t = 0; t < 4; ++t) {
        const std::int64_t j0 = (jt0 + t) * kPackTileWidth;
        const __m128 scale = _mm_set1_ps(
            sa * b.scales[static_cast<std::size_t>(jt0 + t)]);
        __m128 v0 = _mm_mul_ps(_mm_cvtepi32_ps(acc[t][0]), scale);
        __m128 v1 = _mm_mul_ps(_mm_cvtepi32_ps(acc[t][1]), scale);
        if (pbias != nullptr) {
            v0 = _mm_add_ps(v0, _mm_loadu_ps(pbias + j0));
            v1 = _mm_add_ps(v1, _mm_loadu_ps(pbias + j0 + 4));
        }
        _mm_storeu_ps(crow + j0, v0);
        _mm_storeu_ps(crow + j0 + 4, v1);
    }
}

#endif // LIA_KERNEL_SSE2

/** One quantized row over the tile range [t0, t1): the fused
 *  dequant-GEMV body (wide kernel for full-tile groups of four,
 *  per-tile for the remainder and the ragged final tile). */
void
int8GemvRow(const std::int8_t *aq, float sa, const PackedInt8Matrix &b,
            std::int64_t t0, std::int64_t t1, const float *pbias,
            float *crow)
{
#if LIA_KERNEL_SSE2
    const std::int64_t kp = b.kPairs();
    std::int64_t jt = t0;
    for (; jt + 4 <= t1 && (jt + 4) * kPackTileWidth <= b.n; jt += 4)
        int8GemvWide4(aq, sa, b, jt, pbias, crow);
    for (; jt < t1; ++jt) {
        if ((jt + 1) * kPackTileWidth <= b.n) {
            int8Block<1>(aq, 0, &sa,
                         b.data.data() + jt * kp * 2 * kPackTileWidth,
                         kp, b.scales[static_cast<std::size_t>(jt)],
                         pbias, jt * kPackTileWidth, crow, b.n);
        } else {
            int8TileRowScalar(aq, sa, b, jt, pbias, crow);
        }
    }
#else
    for (std::int64_t jt = t0; jt < t1; ++jt)
        int8TileRowScalar(aq, sa, b, jt, pbias, crow);
#endif
}

/** The SSE2 tier's fp32 sweep: every row over tiles [t0, t1). */
void
packedTilesSse2(const float *pa, std::int64_t m, const PackedMatrix &b,
                const float *pbias, std::int64_t t0, std::int64_t t1,
                float *pc)
{
    const std::int64_t k = b.k;
    const std::int64_t n = b.n;
    for (std::int64_t jt = t0; jt < t1; ++jt) {
        const float *tile = b.data.data() + jt * k * kPackTileWidth;
        const std::int64_t j0 = jt * kPackTileWidth;
        const std::int64_t jw = std::min(kPackTileWidth, n - j0);
        std::int64_t i = 0;
        for (; i + 4 <= m; i += 4)
            packedBlock<4>(pa + i * k, k, tile, k, pbias, j0, jw,
                           pc + i * n, n);
        for (; i < m; ++i)
            packedBlock<1>(pa + i * k, k, tile, k, pbias, j0, jw,
                           pc + i * n, n);
    }
}

/**
 * The SSE2 tier's int8 sweep: every quantized row over tiles
 * [t0, t1) — the wide fused dequant-GEMV for m < 4, the register-
 * blocked tile microkernel for GEMM shapes.
 */
void
int8TilesSse2(const std::int8_t *aq, std::int64_t lda, const float *sa,
              std::int64_t m, const PackedInt8Matrix &b,
              const float *pbias, std::int64_t t0, std::int64_t t1,
              float *pc)
{
    const std::int64_t n = b.n;
    if (m < 4) {
        for (std::int64_t i = 0; i < m; ++i)
            int8GemvRow(aq + i * lda, sa[i], b, t0, t1, pbias, pc + i * n);
        return;
    }
    for (std::int64_t jt = t0; jt < t1; ++jt) {
#if LIA_KERNEL_SSE2
        const std::int64_t j0 = jt * kPackTileWidth;
        if (j0 + kPackTileWidth <= n) {
            const std::int64_t kp = b.kPairs();
            const std::int8_t *tile =
                b.data.data() + jt * kp * 2 * kPackTileWidth;
            const float sw = b.scales[static_cast<std::size_t>(jt)];
            std::int64_t i = 0;
            for (; i + 4 <= m; i += 4)
                int8Block<4>(aq + i * lda, lda, sa + i, tile, kp, sw,
                             pbias, j0, pc + i * n, n);
            for (; i < m; ++i)
                int8Block<1>(aq + i * lda, lda, sa + i, tile, kp, sw,
                             pbias, j0, pc + i * n, n);
            continue;
        }
#endif
        for (std::int64_t i = 0; i < m; ++i)
            int8TileRowScalar(aq + i * lda, sa[i], b, jt, pbias,
                              pc + i * n);
    }
}

/** The one shape check of attention() and scalarAttention(). */
void
checkAttentionShapes(const Tensor &q, std::span<const KvLayerView> kv,
                     std::int64_t tokens, std::int64_t heads,
                     std::int64_t kvHeads, std::int64_t headDim)
{
    const auto batch = static_cast<std::int64_t>(kv.size());
    LIA_ASSERT(q.ndim() == 2 && batch > 0 && tokens > 0 &&
                   headDim > 0 && kvHeads > 0 &&
                   heads % kvHeads == 0 &&
                   q.dim(0) == batch * tokens &&
                   q.dim(1) == heads * headDim,
               "attention shape mismatch: q ", q.dim(0), "x", q.dim(1),
               ", batch ", batch, ", tokens ", tokens, ", heads ", heads,
               "/", kvHeads, "x", headDim);
    for (const KvLayerView &row : kv) {
        LIA_ASSERT(row.rowStride == kvHeads * headDim &&
                       row.length >= tokens,
                   "attention view mismatch: length ", row.length,
                   " stride ", row.rowStride, " for ", tokens,
                   " tokens of ", kvHeads, "x", headDim);
    }
}

/**
 * Scores of one query row: s[j] = q . k_j for j in [0, count), key j
 * at kb + j * rs. Each score is one accumulator chain summing
 * c-ascending from 0, the reference dot product's order. The SSE2
 * path sweeps eight keys at once, one key per lane: it loads 4x4
 * blocks of (key, c) and transposes them so lane i of column c holds
 * k_i[c].
 */
void
attentionScores(const float *q, const float *kb, std::int64_t rs,
                std::int64_t dh, std::int64_t count, float *s)
{
    std::int64_t j = 0;
#if LIA_KERNEL_SSE2
    for (; j + 8 <= count; j += 8) {
        const float *k = kb + j * rs;
        __m128 lo = _mm_setzero_ps();
        __m128 hi = _mm_setzero_ps();
        std::int64_t c = 0;
        for (; c + 4 <= dh; c += 4) {
            __m128 r0 = _mm_loadu_ps(k + c);
            __m128 r1 = _mm_loadu_ps(k + rs + c);
            __m128 r2 = _mm_loadu_ps(k + 2 * rs + c);
            __m128 r3 = _mm_loadu_ps(k + 3 * rs + c);
            __m128 r4 = _mm_loadu_ps(k + 4 * rs + c);
            __m128 r5 = _mm_loadu_ps(k + 5 * rs + c);
            __m128 r6 = _mm_loadu_ps(k + 6 * rs + c);
            __m128 r7 = _mm_loadu_ps(k + 7 * rs + c);
            _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
            _MM_TRANSPOSE4_PS(r4, r5, r6, r7);
            const __m128 x0 = _mm_set1_ps(q[c]);
            const __m128 x1 = _mm_set1_ps(q[c + 1]);
            const __m128 x2 = _mm_set1_ps(q[c + 2]);
            const __m128 x3 = _mm_set1_ps(q[c + 3]);
            lo = _mm_add_ps(lo, _mm_mul_ps(x0, r0));
            hi = _mm_add_ps(hi, _mm_mul_ps(x0, r4));
            lo = _mm_add_ps(lo, _mm_mul_ps(x1, r1));
            hi = _mm_add_ps(hi, _mm_mul_ps(x1, r5));
            lo = _mm_add_ps(lo, _mm_mul_ps(x2, r2));
            hi = _mm_add_ps(hi, _mm_mul_ps(x2, r6));
            lo = _mm_add_ps(lo, _mm_mul_ps(x3, r3));
            hi = _mm_add_ps(hi, _mm_mul_ps(x3, r7));
        }
        for (; c < dh; ++c) {
            const __m128 x = _mm_set1_ps(q[c]);
            const float *kc = k + c;
            lo = _mm_add_ps(lo, _mm_mul_ps(x, _mm_setr_ps(
                                                  kc[0], kc[rs],
                                                  kc[2 * rs], kc[3 * rs])));
            hi = _mm_add_ps(hi, _mm_mul_ps(x, _mm_setr_ps(
                                                  kc[4 * rs], kc[5 * rs],
                                                  kc[6 * rs], kc[7 * rs])));
        }
        _mm_storeu_ps(s + j, lo);
        _mm_storeu_ps(s + j + 4, hi);
    }
#endif
    for (; j < count; ++j) {
        const float *kr = kb + j * rs;
        float acc = 0.0f;
        for (std::int64_t c = 0; c < dh; ++c)
            acc += q[c] * kr[c];
        s[j] = acc;
    }
}

/**
 * out[c] += p[j] * v_j[c] over j ascending in [0, count), value j at
 * vb + j * rs: one accumulator chain per output element, the
 * reference matmul's order. The SSE2 path holds 16 columns in
 * registers across the whole sweep.
 */
void
attentionContext(const float *p, const float *vb, std::int64_t rs,
                 std::int64_t dh, std::int64_t count, float *out)
{
    std::int64_t c = 0;
#if LIA_KERNEL_SSE2
    for (; c + 16 <= dh; c += 16) {
        __m128 a0 = _mm_loadu_ps(out + c);
        __m128 a1 = _mm_loadu_ps(out + c + 4);
        __m128 a2 = _mm_loadu_ps(out + c + 8);
        __m128 a3 = _mm_loadu_ps(out + c + 12);
        for (std::int64_t j = 0; j < count; ++j) {
            const __m128 w = _mm_set1_ps(p[j]);
            const float *v = vb + j * rs + c;
            a0 = _mm_add_ps(a0, _mm_mul_ps(w, _mm_loadu_ps(v)));
            a1 = _mm_add_ps(a1, _mm_mul_ps(w, _mm_loadu_ps(v + 4)));
            a2 = _mm_add_ps(a2, _mm_mul_ps(w, _mm_loadu_ps(v + 8)));
            a3 = _mm_add_ps(a3, _mm_mul_ps(w, _mm_loadu_ps(v + 12)));
        }
        _mm_storeu_ps(out + c, a0);
        _mm_storeu_ps(out + c + 4, a1);
        _mm_storeu_ps(out + c + 8, a2);
        _mm_storeu_ps(out + c + 12, a3);
    }
    for (; c + 4 <= dh; c += 4) {
        __m128 a = _mm_loadu_ps(out + c);
        for (std::int64_t j = 0; j < count; ++j)
            a = _mm_add_ps(a, _mm_mul_ps(_mm_set1_ps(p[j]),
                                         _mm_loadu_ps(vb + j * rs + c)));
        _mm_storeu_ps(out + c, a);
    }
#endif
    for (; c < dh; ++c) {
        float acc = out[c];
        for (std::int64_t j = 0; j < count; ++j)
            acc += p[j] * vb[j * rs + c];
        out[c] = acc;
    }
}

/**
 * The SSE2 tier's attention item: one (row, head) over its @p tokens
 * query rows, as avx512::attentionHead. @p scratch holds @p len
 * floats: one query row's probabilities at a time.
 */
void
attentionHeadSse2(const float *q, std::int64_t stride, const float *kb,
                  const float *vb, std::int64_t rs, std::int64_t len,
                  std::int64_t tokens, std::int64_t dh, float scale,
                  bool round, float *out, float *scratch)
{
    float *p = scratch;
    for (std::int64_t t = 0; t < tokens; ++t) {
        const float *qrow = q + t * stride;
        float *orow = out + t * stride;
        // Columns from `limit` on are causally masked: the softmax
        // zeroes them whatever their score.
        const std::int64_t limit = len - tokens + t + 1;

        attentionScores(qrow, kb, rs, dh, limit, p);

        // Round, scale, then the causal softmax and its rounding.
        for (std::int64_t j = 0; j < limit; ++j)
            p[j] = (round ? roundToBf16(p[j]) : p[j]) * scale;
        float max_val = p[0];
        for (std::int64_t j = 1; j < limit; ++j)
            max_val = std::max(max_val, p[j]);
        float sum = 0.0f;
        for (std::int64_t j = 0; j < limit; ++j) {
            p[j] = std::exp(p[j] - max_val);
            sum += p[j];
        }
        for (std::int64_t j = 0; j < limit; ++j) {
            p[j] /= sum;
            if (round)
                p[j] = roundToBf16(p[j]);
        }
        std::fill(p + limit, p + len, 0.0f);

        // softmax(S) x V into the zeroed output slice, over every
        // column as matmul does (masked ones add 0 x v).
        attentionContext(p, vb, rs, dh, len, orow);
        if (round) {
            for (std::int64_t c = 0; c < dh; ++c)
                orow[c] = roundToBf16(orow[c]);
        }
    }
}

std::int64_t
attentionScratchSse2(std::int64_t, std::int64_t len, std::int64_t)
{
    return len;
}

#if LIA_AVX512_TIER
void
packedTilesAvx512(const float *pa, std::int64_t m, const PackedMatrix &b,
                  const float *pbias, std::int64_t t0, std::int64_t t1,
                  float *pc)
{
    avx512::packedTiles(pa, m, b.k, b.data.data(), b.n, pbias, t0, t1,
                        pc);
}

void
int8TilesAvx512(const std::int8_t *aq, std::int64_t lda, const float *sa,
                std::int64_t m, const PackedInt8Matrix &b,
                const float *pbias, std::int64_t t0, std::int64_t t1,
                float *pc)
{
    avx512::int8Tiles(aq, lda, sa, m, b.data.data(), b.scales.data(),
                      b.kPairs(), b.n, pbias, t0, t1, pc);
}
#endif

/**
 * One tier's inner kernels plus rough single-core costs that size the
 * parallel grains (ns per multiply-accumulate, ns per quantized
 * element). The matmul entry points below are shared by every tier.
 */
struct TierKernels
{
    void (*packedTiles)(const float *, std::int64_t, const PackedMatrix &,
                        const float *, std::int64_t, std::int64_t,
                        float *);
    void (*int8Tiles)(const std::int8_t *, std::int64_t, const float *,
                      std::int64_t, const PackedInt8Matrix &,
                      const float *, std::int64_t, std::int64_t,
                      float *);
    float (*quantizeRow)(const float *, std::int64_t, std::int8_t *);
    /** One (row, head) attention item, and its scratch in floats. */
    void (*attentionHead)(const float *, std::int64_t, const float *,
                          const float *, std::int64_t, std::int64_t,
                          std::int64_t, std::int64_t, float, bool,
                          float *, float *);
    std::int64_t (*attentionScratch)(std::int64_t, std::int64_t,
                                     std::int64_t);
    double fp32MacNs;
    double int8MacNs;
    double quantizeNs;
    /** Attention per (query, key): per head-dim column of the two
     *  sweeps, and per softmax entry with its std::exp. */
    double attentionColumnNs;
    double attentionKeyNs;
};

constexpr TierKernels kSse2Kernels{&packedTilesSse2, &int8TilesSse2,
                                   &quantizeRowInt8, &attentionHeadSse2,
                                   &attentionScratchSse2, 0.1, 0.1, 6.0,
                                   0.2, 10.0};
#if LIA_AVX512_TIER
constexpr TierKernels kAvx512Kernels{&packedTilesAvx512, &int8TilesAvx512,
                                     &avx512::quantizeRow,
                                     &avx512::attentionHead,
                                     &avx512::attentionScratch, 0.04,
                                     0.015, 0.1, 0.15, 6.0};
#endif

} // namespace

std::int64_t
PackedMatrix::tiles() const
{
    return (n + kPackTileWidth - 1) / kPackTileWidth;
}

PackedMatrix
packColumns(const Tensor &b)
{
    LIA_ASSERT(b.ndim() == 2, "packColumns wants 2-D");
    PackedMatrix p;
    p.k = b.dim(0);
    p.n = b.dim(1);
    p.data.assign(
        static_cast<std::size_t>(p.tiles() * p.k * kPackTileWidth),
        0.0f);
    const float *pb = b.data();
    for (std::int64_t jt = 0; jt < p.tiles(); ++jt) {
        float *tile = p.data.data() + jt * p.k * kPackTileWidth;
        const std::int64_t j0 = jt * kPackTileWidth;
        const std::int64_t jw = std::min(kPackTileWidth, p.n - j0);
        for (std::int64_t kk = 0; kk < p.k; ++kk)
            for (std::int64_t jj = 0; jj < jw; ++jj)
                tile[kk * kPackTileWidth + jj] = pb[kk * p.n + j0 + jj];
    }
    return p;
}

PackedMatrix
packTransposed(const Tensor &b)
{
    LIA_ASSERT(b.ndim() == 2, "packTransposed wants 2-D");
    PackedMatrix p;
    p.k = b.dim(1);
    p.n = b.dim(0);
    p.data.assign(
        static_cast<std::size_t>(p.tiles() * p.k * kPackTileWidth),
        0.0f);
    const float *pb = b.data();
    for (std::int64_t jt = 0; jt < p.tiles(); ++jt) {
        float *tile = p.data.data() + jt * p.k * kPackTileWidth;
        const std::int64_t j0 = jt * kPackTileWidth;
        const std::int64_t jw = std::min(kPackTileWidth, p.n - j0);
        for (std::int64_t jj = 0; jj < jw; ++jj)
            for (std::int64_t kk = 0; kk < p.k; ++kk)
                tile[kk * kPackTileWidth + jj] = pb[(j0 + jj) * p.k + kk];
    }
    return p;
}

Tensor
scalarMatmul(const Tensor &a, const Tensor &b, const Tensor &bias,
             const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler, "scalar_matmul");
    LIA_ASSERT(a.ndim() == 2 && b.ndim() == 2, "matmul wants 2-D");
    const std::int64_t m = a.dim(0);
    const std::int64_t k = a.dim(1);
    const std::int64_t n = b.dim(1);
    LIA_ASSERT(b.dim(0) == k, "matmul inner dimension mismatch: ",
               k, " vs ", b.dim(0));
    const bool has_bias = !bias.empty();
    if (has_bias) {
        LIA_ASSERT(bias.ndim() == 1 && bias.dim(0) == n,
                   "bias shape mismatch");
    }

    Tensor c({m, n});
    const float *pa = a.data();
    const float *pb = b.data();
    const float *pbias = has_bias ? bias.data() : nullptr;
    float *pc = c.data();
    // i-k-j loop order streams B row-wise for cache friendliness.
    for (std::int64_t i = 0; i < m; ++i) {
        float *crow = pc + i * n;
        if (has_bias) {
            for (std::int64_t j = 0; j < n; ++j)
                crow[j] = pbias[j];
        }
        const float *arow = pa + i * k;
        for (std::int64_t kk = 0; kk < k; ++kk) {
            const float av = arow[kk];
            const float *brow = pb + kk * n;
            for (std::int64_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
    maybeRound(c, KernelOptions{opts.bf16Rounding, nullptr});
    return c;
}

std::int64_t
PackedInt8Matrix::tiles() const
{
    return (n + kPackTileWidth - 1) / kPackTileWidth;
}

bool
int8PackViable(std::int64_t k)
{
    // Each k-pair contributes at most 2 * 127 * 127 to the int32
    // accumulator; bound the pair count so the sum can never wrap.
    constexpr std::int64_t pair_max = 2 * 127 * 127;
    constexpr std::int64_t int32_max = 2147483647;
    return k > 0 && (k + 1) / 2 <= int32_max / pair_max;
}

PackedInt8Matrix
packColumnsInt8(const Tensor &b)
{
    LIA_ASSERT(b.ndim() == 2, "packColumnsInt8 wants 2-D");
    const std::int64_t k = b.dim(0);
    const std::int64_t n = b.dim(1);
    const float *pb = b.data();
    LIA_ASSERT(int8PackViable(k),
               "reduction extent ", k, " too deep for int8 int32 "
               "accumulation — keep this tensor on the fp32 path");
    PackedInt8Matrix p;
    p.k = k;
    p.n = n;
    const std::int64_t kp = p.kPairs();
    p.data.assign(static_cast<std::size_t>(p.tiles() * kp * 2 *
                                           kPackTileWidth),
                  0);
    p.scales.assign(static_cast<std::size_t>(p.tiles()), 0.0f);
    for (std::int64_t jt = 0; jt < p.tiles(); ++jt) {
        const std::int64_t j0 = jt * kPackTileWidth;
        const std::int64_t jw = std::min(kPackTileWidth, n - j0);
        float absmax = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk)
            for (std::int64_t jj = 0; jj < jw; ++jj)
                absmax = std::max(absmax, std::fabs(pb[kk * n + j0 + jj]));
        if (absmax == 0.0f)
            continue;  // scale 0, all-zero codes
        const float inv = 127.0f / absmax;
        p.scales[static_cast<std::size_t>(jt)] = absmax / 127.0f;
        std::int8_t *tile =
            p.data.data() + jt * kp * 2 * kPackTileWidth;
        for (std::int64_t kk = 0; kk < k; ++kk) {
            for (std::int64_t jj = 0; jj < jw; ++jj) {
                const long q =
                    std::lrintf(pb[kk * n + j0 + jj] * inv);
                tile[(kk / 2) * 2 * kPackTileWidth + jj * 2 +
                     (kk & 1)] = static_cast<std::int8_t>(
                    std::clamp(q, -127l, 127l));
            }
        }
    }
    return p;
}

namespace {

/** Shared argument checking of the int8 matmuls. */
void
checkInt8Operands(const Tensor &a, const PackedInt8Matrix &b,
                  const Tensor &bias)
{
    LIA_ASSERT(a.ndim() == 2, "matmulInt8 wants 2-D A");
    LIA_ASSERT(!b.empty(), "matmulInt8 against an unpacked operand");
    LIA_ASSERT(b.k == a.dim(1),
               "matmulInt8 inner dimension mismatch: ", a.dim(1),
               " vs ", b.k);
    if (!bias.empty()) {
        LIA_ASSERT(bias.ndim() == 1 && bias.dim(0) == b.n,
                   "bias shape mismatch");
    }
}

} // namespace

Tensor
scalarMatmulInt8(const Tensor &a, const PackedInt8Matrix &b,
                 const Tensor &bias, const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler,
                                       "scalar_matmul_int8");
    checkInt8Operands(a, b, bias);
    const std::int64_t m = a.dim(0);
    const std::int64_t k = a.dim(1);
    const std::int64_t n = b.n;

    Tensor c({m, n});
    const float *pa = a.data();
    const float *pbias = bias.empty() ? nullptr : bias.data();
    float *pc = c.data();
    std::vector<std::int8_t> aq(
        static_cast<std::size_t>(2 * b.kPairs()), 0);
    for (std::int64_t i = 0; i < m; ++i) {
        const float sa = quantizeRowInt8(pa + i * k, k, aq.data());
        for (std::int64_t jt = 0; jt < b.tiles(); ++jt)
            int8TileRowScalar(aq.data(), sa, b, jt, pbias, pc + i * n);
    }
    maybeRound(c, KernelOptions{opts.bf16Rounding, nullptr});
    return c;
}

namespace {

/** matmulPacked on one tier's inner kernels. */
Tensor
packedOn(const TierKernels &tier, const Tensor &a, const PackedMatrix &b,
         const Tensor &bias, const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler, "matmul_packed");
    LIA_ASSERT(a.ndim() == 2, "matmulPacked wants 2-D A");
    LIA_ASSERT(!b.empty(), "matmulPacked against an unpacked operand");
    const std::int64_t m = a.dim(0);
    const std::int64_t k = a.dim(1);
    const std::int64_t n = b.n;
    LIA_ASSERT(b.k == k, "matmulPacked inner dimension mismatch: ",
               k, " vs ", b.k);
    const bool has_bias = !bias.empty();
    if (has_bias) {
        LIA_ASSERT(bias.ndim() == 1 && bias.dim(0) == n,
                   "bias shape mismatch");
    }

    Tensor c({m, n});
    const float *pa = a.data();
    const float *pbias = has_bias ? bias.data() : nullptr;
    float *pc = c.data();
    // Column-tile partition: good for decode (tiles spread over
    // threads) and for prefill (a tile stays cached across the row
    // sweep). Every output element is produced inside exactly one tile
    // in k-ascending order, and each chunk BF16-rounds the columns it
    // produced — bit-identical at any thread count.
    const double tile_ns = tier.fp32MacNs * static_cast<double>(m) *
                           static_cast<double>(k * kPackTileWidth);
    parallelRun(opts, b.tiles(), tile_ns,
                [&](std::int64_t t0, std::int64_t t1) {
                    tier.packedTiles(pa, m, b, pbias, t0, t1, pc);
                    if (opts.bf16Rounding)
                        roundColumns(pc, m, n, t0 * kPackTileWidth,
                                     std::min(t1 * kPackTileWidth, n));
                });
    return c;
}

/** matmulInt8 on one tier's quantizer and inner kernels. */
Tensor
int8On(const TierKernels &tier, const Tensor &a, const PackedInt8Matrix &b,
       const Tensor &bias, const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler, "matmul_int8");
    checkInt8Operands(a, b, bias);
    const std::int64_t m = a.dim(0);
    const std::int64_t k = a.dim(1);
    const std::int64_t n = b.n;
    const std::int64_t lda = 2 * b.kPairs();  // quantized row stride

    Tensor c({m, n});
    const float *pa = a.data();
    const float *pbias = bias.empty() ? nullptr : bias.data();
    float *pc = c.data();
    // Quantized activations, zero-padded to whole k-pairs; each row's
    // codes are produced by exactly one chunk with the tier's
    // quantizer, which equals the scalar one code for code.
    std::vector<std::int8_t> aq(static_cast<std::size_t>(m * lda), 0);
    std::vector<float> sa(static_cast<std::size_t>(m), 0.0f);
    parallelRun(opts, m, tier.quantizeNs * static_cast<double>(k),
                [&](std::int64_t i0, std::int64_t i1) {
                    for (std::int64_t i = i0; i < i1; ++i)
                        sa[static_cast<std::size_t>(i)] = tier.quantizeRow(
                            pa + i * k, k, aq.data() + i * lda);
                });
    // Column-tile partition of the exact int32 sweep; each chunk
    // BF16-rounds the columns it produced.
    const double tile_ns = tier.int8MacNs * static_cast<double>(m) *
                           static_cast<double>(lda * kPackTileWidth);
    parallelRun(opts, b.tiles(), tile_ns,
                [&](std::int64_t t0, std::int64_t t1) {
                    tier.int8Tiles(aq.data(), lda, sa.data(), m, b, pbias,
                                   t0, t1, pc);
                    if (opts.bf16Rounding)
                        roundColumns(pc, m, n, t0 * kPackTileWidth,
                                     std::min(t1 * kPackTileWidth, n));
                });
    return c;
}

template <const TierKernels &K>
Tensor
tierPacked(const Tensor &a, const PackedMatrix &b, const Tensor &bias,
           const KernelOptions &opts)
{
    return packedOn(K, a, b, bias, opts);
}

template <const TierKernels &K>
Tensor
tierInt8(const Tensor &a, const PackedInt8Matrix &b, const Tensor &bias,
         const KernelOptions &opts)
{
    return int8On(K, a, b, bias, opts);
}

/** attention() on one tier's (row, head) item. */
Tensor
attentionOn(const TierKernels &tier, const Tensor &q,
            std::span<const KvLayerView> kv, std::int64_t tokens,
            std::int64_t heads, std::int64_t kvHeads, std::int64_t headDim,
            const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler, "attention");
    checkAttentionShapes(q, kv, tokens, heads, kvHeads, headDim);
    const auto batch = static_cast<std::int64_t>(kv.size());
    const std::int64_t d = heads * headDim;
    const std::int64_t group = heads / kvHeads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(headDim));
    std::int64_t longest = 0;
    for (const KvLayerView &row : kv)
        longest = std::max(longest, row.length);

    Tensor out({batch * tokens, d});
    const float *pq = q.data();
    float *po = out.data();
    // (row, head)-partitioned: each pair reads its KV head in place
    // and writes a disjoint column slice of the output, so any
    // schedule produces identical bits. Per item: two dh-wide sweeps
    // and one std::exp per cached token, per query token.
    const double item_ns =
        static_cast<double>(tokens * longest) *
        (tier.attentionColumnNs * static_cast<double>(headDim) +
         tier.attentionKeyNs);
    const auto scratch = static_cast<std::size_t>(
        tier.attentionScratch(tokens, longest, headDim));
    parallelRun(opts, batch * heads, item_ns, [&](std::int64_t bh0,
                                                  std::int64_t bh1) {
        // Every float is written before it is read.
        const std::unique_ptr<float[]> p(new float[scratch]);
        for (std::int64_t bh = bh0; bh < bh1; ++bh) {
            const std::int64_t b = bh / heads;
            const std::int64_t h = bh % heads;
            const KvLayerView &view = kv[static_cast<std::size_t>(b)];
            const std::int64_t col = (h / group) * headDim;
            const std::int64_t at = b * tokens * d + h * headDim;
            tier.attentionHead(pq + at, d, view.k + col, view.v + col,
                               view.rowStride, view.length, tokens,
                               headDim, scale, opts.bf16Rounding, po + at,
                               p.get());
        }
    });
    return out;
}

template <const TierKernels &K>
Tensor
tierAttention(const Tensor &q, std::span<const KvLayerView> kv,
              std::int64_t tokens, std::int64_t heads, std::int64_t kvHeads,
              std::int64_t headDim, const KernelOptions &opts)
{
    return attentionOn(K, q, kv, tokens, heads, kvHeads, headDim, opts);
}

#if LIA_KERNEL_SSE2
constexpr const char *kBaselineTierName = "sse2";
#else
constexpr const char *kBaselineTierName = "portable";
#endif

const KernelTier kSse2Tier{kBaselineTierName, &tierPacked<kSse2Kernels>,
                           &tierInt8<kSse2Kernels>,
                           kSse2Kernels.quantizeRow,
                           &tierAttention<kSse2Kernels>};
#if LIA_AVX512_TIER
const KernelTier kAvx512Tier{"avx512-vnni", &tierPacked<kAvx512Kernels>,
                             &tierInt8<kAvx512Kernels>,
                             kAvx512Kernels.quantizeRow,
                             &tierAttention<kAvx512Kernels>};
#endif

} // namespace

const KernelTier &
sse2KernelTier()
{
    return kSse2Tier;
}

const KernelTier *
avx512KernelTier()
{
#if LIA_AVX512_TIER
    static const bool supported =
        __builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vnni");
    return supported ? &kAvx512Tier : nullptr;
#else
    return nullptr;
#endif
}

const KernelTier &
activeKernelTier()
{
    static const KernelTier &tier =
        avx512KernelTier() != nullptr ? *avx512KernelTier() : kSse2Tier;
    return tier;
}

Tensor
matmulPacked(const Tensor &a, const PackedMatrix &b, const Tensor &bias,
             const KernelOptions &opts)
{
    return activeKernelTier().matmulPacked(a, b, bias, opts);
}

Tensor
matmulInt8(const Tensor &a, const PackedInt8Matrix &b,
           const Tensor &bias, const KernelOptions &opts)
{
    return activeKernelTier().matmulInt8(a, b, bias, opts);
}

Tensor
scalarMatmulTransposed(const Tensor &a, const Tensor &b,
                       const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler, "scalar_matmul_transposed");
    LIA_ASSERT(a.ndim() == 2 && b.ndim() == 2,
               "scalarMatmulTransposed wants 2-D");
    const std::int64_t m = a.dim(0);
    const std::int64_t k = a.dim(1);
    const std::int64_t n = b.dim(0);
    LIA_ASSERT(b.dim(1) == k, "inner dimension mismatch");

    Tensor c({m, n});
    for (std::int64_t i = 0; i < m; ++i) {
        const float *arow = a.data() + i * k;
        float *crow = c.data() + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
            const float *brow = b.data() + j * k;
            float acc = 0.0f;
            for (std::int64_t kk = 0; kk < k; ++kk)
                acc += arow[kk] * brow[kk];
            crow[j] = acc;
        }
    }
    maybeRound(c, KernelOptions{opts.bf16Rounding, nullptr});
    return c;
}

void
causalSoftmaxRows(Tensor &t, std::int64_t offset,
                  const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler, "softmax_rows");
    LIA_ASSERT(t.ndim() == 2, "softmax wants 2-D");
    const std::int64_t rows = t.dim(0);
    const std::int64_t cols = t.dim(1);
    float *pt = t.data();
    // std::exp dominates: about 10 ns per column.
    parallelRun(opts, rows, 10.0 * static_cast<double>(cols),
                [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t i = r0; i < r1; ++i) {
            float *row = pt + i * cols;
            const std::int64_t limit = std::min(cols, offset + i + 1);
            LIA_ASSERT(limit > 0, "softmax row fully masked");
            float max_val = row[0];
            for (std::int64_t j = 1; j < limit; ++j)
                max_val = std::max(max_val, row[j]);
            float sum = 0.0f;
            for (std::int64_t j = 0; j < limit; ++j) {
                row[j] = std::exp(row[j] - max_val);
                sum += row[j];
            }
            for (std::int64_t j = 0; j < limit; ++j)
                row[j] /= sum;
            for (std::int64_t j = limit; j < cols; ++j)
                row[j] = 0.0f;
        }
    });
    maybeRound(t, opts);
}

Tensor
attention(const Tensor &q, std::span<const KvLayerView> kv,
          std::int64_t tokens, std::int64_t heads, std::int64_t kvHeads,
          std::int64_t headDim, const KernelOptions &opts)
{
    return activeKernelTier().attention(q, kv, tokens, heads, kvHeads,
                                        headDim, opts);
}

Tensor
scalarAttention(const Tensor &q, std::span<const KvLayerView> kv,
                std::int64_t tokens, std::int64_t heads,
                std::int64_t kvHeads, std::int64_t headDim,
                const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler, "scalar_attention");
    checkAttentionShapes(q, kv, tokens, heads, kvHeads, headDim);
    const KernelOptions serial{opts.bf16Rounding, nullptr};
    const auto batch = static_cast<std::int64_t>(kv.size());
    const std::int64_t group = heads / kvHeads;
    const float scale = 1.0f / std::sqrt(static_cast<float>(headDim));

    Tensor out({batch * tokens, heads * headDim});
    for (std::int64_t b = 0; b < batch; ++b) {
        const KvLayerView &view = kv[static_cast<std::size_t>(b)];
        const std::int64_t len = view.length;
        for (std::int64_t h = 0; h < heads; ++h) {
            const std::int64_t kvh = h / group;
            Tensor qh({tokens, headDim});
            for (std::int64_t t = 0; t < tokens; ++t)
                for (std::int64_t c = 0; c < headDim; ++c)
                    qh.at(t, c) = q.at(b * tokens + t, h * headDim + c);
            Tensor kh({len, headDim});
            Tensor vh({len, headDim});
            for (std::int64_t i = 0; i < len; ++i) {
                const std::int64_t at = i * view.rowStride + kvh * headDim;
                for (std::int64_t c = 0; c < headDim; ++c) {
                    kh.at(i, c) = view.k[at + c];
                    vh.at(i, c) = view.v[at + c];
                }
            }
            Tensor scores = scalarMatmulTransposed(qh, kh, serial);
            for (std::int64_t i = 0; i < scores.numel(); ++i)
                scores.data()[i] *= scale;
            causalSoftmaxRows(scores, len - tokens, serial);
            Tensor ctx = scalarMatmul(scores, vh, Tensor(), serial);
            for (std::int64_t t = 0; t < tokens; ++t)
                for (std::int64_t c = 0; c < headDim; ++c)
                    out.at(b * tokens + t, h * headDim + c) = ctx.at(t, c);
        }
    }
    return out;
}

Tensor
layerNorm(const Tensor &x, const Tensor &gain, const Tensor &bias,
          const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler, "layer_norm");
    LIA_ASSERT(x.ndim() == 2, "layerNorm wants 2-D");
    const std::int64_t rows = x.dim(0);
    const std::int64_t n = x.dim(1);
    LIA_ASSERT(gain.ndim() == 1 && gain.dim(0) == n &&
               bias.ndim() == 1 && bias.dim(0) == n,
               "layerNorm parameter shapes");

    Tensor out({rows, n});
    constexpr float eps = 1e-5f;
    const float *px = x.data();
    const float *pg = gain.data();
    const float *pb = bias.data();
    float *po = out.data();
    // Two sequential float sums and a scaling pass: about 3 ns per
    // element.
    parallelRun(opts, rows, 3.0 * static_cast<double>(n),
                [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t i = r0; i < r1; ++i) {
            const float *row = px + i * n;
            float *orow = po + i * n;
            float mean = 0.0f;
            for (std::int64_t j = 0; j < n; ++j)
                mean += row[j];
            mean /= static_cast<float>(n);
            float var = 0.0f;
            for (std::int64_t j = 0; j < n; ++j) {
                const float d = row[j] - mean;
                var += d * d;
            }
            var /= static_cast<float>(n);
            const float inv = 1.0f / std::sqrt(var + eps);
            for (std::int64_t j = 0; j < n; ++j)
                orow[j] = (row[j] - mean) * inv * pg[j] + pb[j];
        }
    });
    maybeRound(out, opts);
    return out;
}

void
reluInPlace(Tensor &t, const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler, "relu");
    float *p = t.data();
    parallelRun(opts, t.numel(), kElementNs,
                [p](std::int64_t i0, std::int64_t i1) {
                    std::int64_t i = i0;
#if LIA_KERNEL_SSE2
                    // maxps(0, x) is (0 > x) ? 0 : x — std::max(x, 0)
                    // for every input, NaN and -0 included — and
                    // takes no branch on the sign.
                    const __m128 zero = _mm_setzero_ps();
                    for (; i + 4 <= i1; i += 4)
                        _mm_storeu_ps(p + i,
                                      _mm_max_ps(zero, _mm_loadu_ps(p + i)));
#endif
                    for (; i < i1; ++i)
                        p[i] = std::max(p[i], 0.0f);
                });
    maybeRound(t, opts);
}

void
siluInPlace(Tensor &t, const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler, "silu");
    float *p = t.data();
    parallelRun(opts, t.numel(), 5.0,  // std::exp per element
                [p](std::int64_t i0, std::int64_t i1) {
                    for (std::int64_t i = i0; i < i1; ++i) {
                        const float x = p[i];
                        p[i] = x / (1.0f + std::exp(-x));
                    }
                });
    maybeRound(t, opts);
}

void
mulInPlace(Tensor &a, const Tensor &b, const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler, "mul");
    LIA_ASSERT(a.shape() == b.shape(), "mul shape mismatch");
    float *pa = a.data();
    const float *pb = b.data();
    parallelRun(opts, a.numel(), kElementNs,
                [pa, pb](std::int64_t i0, std::int64_t i1) {
                    for (std::int64_t i = i0; i < i1; ++i)
                        pa[i] *= pb[i];
                });
    maybeRound(a, opts);
}

Tensor
add(const Tensor &a, const Tensor &b, const KernelOptions &opts)
{
    obs::KernelProfiler::Scope profile(opts.profiler, "add");
    LIA_ASSERT(a.shape() == b.shape(), "add shape mismatch");
    Tensor c = a.clone();
    float *pc = c.data();
    const float *pb = b.data();
    parallelRun(opts, c.numel(), kElementNs,
                [pc, pb](std::int64_t i0, std::int64_t i1) {
                    for (std::int64_t i = i0; i < i1; ++i)
                        pc[i] += pb[i];
                });
    maybeRound(c, opts);
    return c;
}

std::vector<std::int64_t>
argmaxRows(const Tensor &t)
{
    LIA_ASSERT(t.ndim() == 2, "argmax wants 2-D");
    std::vector<std::int64_t> out;
    out.reserve(static_cast<std::size_t>(t.dim(0)));
    for (std::int64_t i = 0; i < t.dim(0); ++i) {
        const float *row = t.data() + i * t.dim(1);
        // NaN logits are defined to never win: a single sequence's
        // numeric blow-up must not take down the whole serving
        // process, so the row still yields a deterministic token
        // (index 0 when every logit is NaN) instead of aborting.
        std::int64_t best = -1;
        for (std::int64_t j = 0; j < t.dim(1); ++j) {
            if (std::isnan(row[j]))
                continue;
            // Strict > keeps the first index on ties: greedy decode
            // determinism pins this ordering.
            if (best < 0 || row[j] > row[best])
                best = j;
        }
        out.push_back(best < 0 ? 0 : best);
    }
    return out;
}

} // namespace runtime
} // namespace lia
