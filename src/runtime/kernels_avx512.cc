/**
 * @file
 * The AVX-512 (BW + VL + VNNI) tier of the matmul inner kernels
 * (DESIGN.md §7, §12).
 *
 * This file alone is compiled with -mavx512f -mavx512bw -mavx512vl
 * -mavx512vnni -ffp-contract=off (src/runtime/CMakeLists.txt), and
 * its functions run only on hosts whose CPUID reports all four
 * features. It uses intrinsics, plain loops and templates in an
 * anonymous namespace, nothing else: a library inline function
 * instantiated here would be compiled for AVX-512, and the linker
 * could keep that copy for callers on other hosts.
 *
 * Why the results equal the SSE2 tier and the scalar references bit
 * for bit:
 *  - fp32: every output lane is one accumulator chain that starts at
 *    the bias (or 0) and takes one multiply and one add per k, k
 *    ascending. -ffp-contract=off stops GCC from fusing the pair into
 *    an FMA, which would round once instead of twice.
 *  - int8: vpdpwssd adds two 16x16-bit products into an int32 lane,
 *    as pmaddwd + paddd do. The sums are exact int32, so carrying two
 *    k-pairs in the two halves of a zmm and adding the halves at the
 *    end changes nothing.
 *  - quantizer: the max of non-negative floats does not depend on
 *    order, and cvtps2dq rounds half to even under the default MXCSR
 *    exactly as lrintf does; NaN lands on INT_MIN in both and clamps
 *    to -127.
 */

#include "runtime/kernels_avx512.hh"

// GCC 12's AVX-512 headers start several intrinsics (the 512-to-256
// casts, the zero-extensions, permutexvar) from a self-initialised
// "undefined" vector, which -Wuninitialized then reports at every use
// (GCC bug 105593). Those lanes are never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

namespace lia {
namespace runtime {
namespace avx512 {

namespace {

// Every loop over a block's rows (MR) or tiles (TN) carries
// `#pragma GCC unroll`: the accumulator arrays only live in registers
// once those loops are unrolled, which -O2 does not do on its own.

/** PackedMatrix / PackedInt8Matrix column-tile width. */
constexpr std::int64_t kTile = 8;

/** Lanes of tile @p jt that hold real columns of an n-wide matrix. */
inline __mmask8
tileMask(std::int64_t jt, std::int64_t n)
{
    const std::int64_t w = n - jt * kTile;
    return w >= kTile ? static_cast<__mmask8>(0xff)
                      : static_cast<__mmask8>((1u << w) - 1u);
}

// --- fp32 ------------------------------------------------------------

/**
 * MR rows of A against TN consecutive tiles from @p jt: MR * TN
 * independent 8-wide accumulator chains, so the add latency is hidden
 * once MR * TN reaches about 8.
 */
template <int MR, int TN>
void
packedBlock(const float *a, std::int64_t k, const float *data,
            std::int64_t n, const float *bias, std::int64_t jt, float *c)
{
    __m256 acc[MR][TN];
    __mmask8 mask[TN];
    #pragma GCC unroll 16
    for (int t = 0; t < TN; ++t) {
        mask[t] = tileMask(jt + t, n);
        const __m256 init =
            bias != nullptr
                ? _mm256_maskz_loadu_ps(mask[t], bias + (jt + t) * kTile)
                : _mm256_setzero_ps();
        #pragma GCC unroll 16
        for (int r = 0; r < MR; ++r)
            acc[r][t] = init;
    }
    const float *tile = data + jt * k * kTile;
    const std::int64_t stride = k * kTile;
    for (std::int64_t kk = 0; kk < k; ++kk) {
        __m256 bv[TN];
        #pragma GCC unroll 16
        for (int t = 0; t < TN; ++t)
            bv[t] = _mm256_loadu_ps(tile + t * stride + kk * kTile);
        #pragma GCC unroll 16
        for (int r = 0; r < MR; ++r) {
            const __m256 av = _mm256_set1_ps(a[r * k + kk]);
            #pragma GCC unroll 16
            for (int t = 0; t < TN; ++t)
                acc[r][t] =
                    _mm256_add_ps(acc[r][t], _mm256_mul_ps(av, bv[t]));
        }
    }
    #pragma GCC unroll 16
    for (int r = 0; r < MR; ++r)
        #pragma GCC unroll 16
        for (int t = 0; t < TN; ++t)
            _mm256_mask_storeu_ps(c + r * n + (jt + t) * kTile, mask[t],
                                  acc[r][t]);
}

/** MR rows over tiles [t0, t1), TN tiles at a time. */
template <int MR>
void
packedRows(const float *a, std::int64_t k, const float *data,
           std::int64_t n, const float *bias, std::int64_t t0,
           std::int64_t t1, float *c)
{
    constexpr int TN = MR >= 4 ? 2 : MR == 1 ? 8 : 4;
    std::int64_t jt = t0;
    for (; jt + TN <= t1; jt += TN)
        packedBlock<MR, TN>(a, k, data, n, bias, jt, c);
    for (; jt < t1; ++jt)
        packedBlock<MR, 1>(a, k, data, n, bias, jt, c);
}

// --- int8 ------------------------------------------------------------

/**
 * The activation operand of vpdpwssd for k-pairs kk2 and kk2 + 1: the
 * four codes sign-extended to 16 bits, pair kk2 in the low eight
 * int32 lanes and pair kk2 + 1 in the high eight.
 */
inline __m512i
activationPairs(const std::int8_t *aq, std::int64_t kk2)
{
    int word;
    __builtin_memcpy(&word, aq + 2 * kk2, sizeof(word));
    const __m128i wide = _mm_cvtepi8_epi16(_mm_cvtsi32_si128(word));
    return _mm512_permutexvar_epi32(
        _mm512_set_epi32(1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
        _mm512_zextsi128_si512(wide));
}

/** The activation operand for the single k-pair @p kk2 (odd tail). */
inline __m512i
activationPair(const std::int8_t *aq, std::int64_t kk2)
{
    const auto lo = static_cast<unsigned>(
        static_cast<unsigned short>(static_cast<short>(aq[2 * kk2])));
    const auto hi = static_cast<unsigned>(
        static_cast<unsigned short>(static_cast<short>(aq[2 * kk2 + 1])));
    return _mm512_zextsi256_si512(
        _mm256_set1_epi32(static_cast<int>(lo | (hi << 16))));
}

/**
 * MR quantized rows against TN consecutive tiles from @p jt. Each step
 * feeds two k-pairs of a tile (32 weight bytes, sign-extended to 16
 * bits) to one vpdpwssd per (row, tile); the two halves of each
 * accumulator are added once at the end.
 */
template <int MR, int TN>
void
int8Block(const std::int8_t *aq, std::int64_t lda, const float *sa,
          const std::int8_t *data, const float *scales, std::int64_t kp,
          std::int64_t n, const float *bias, std::int64_t jt, float *c)
{
    __m512i acc[MR][TN];
    #pragma GCC unroll 16
    for (int r = 0; r < MR; ++r)
        #pragma GCC unroll 16
        for (int t = 0; t < TN; ++t)
            acc[r][t] = _mm512_setzero_si512();
    const std::int8_t *tile = data + jt * kp * 2 * kTile;
    const std::int64_t stride = kp * 2 * kTile;
    std::int64_t kk2 = 0;
    for (; kk2 + 2 <= kp; kk2 += 2) {
        __m512i w[TN];
        #pragma GCC unroll 16
        for (int t = 0; t < TN; ++t)
            w[t] = _mm512_cvtepi8_epi16(_mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(tile + t * stride +
                                                  kk2 * 2 * kTile)));
        #pragma GCC unroll 16
        for (int r = 0; r < MR; ++r) {
            const __m512i av = activationPairs(aq + r * lda, kk2);
            #pragma GCC unroll 16
            for (int t = 0; t < TN; ++t)
                acc[r][t] = _mm512_dpwssd_epi32(acc[r][t], av, w[t]);
        }
    }
    if (kk2 < kp) {
        __m512i w[TN];
        #pragma GCC unroll 16
        for (int t = 0; t < TN; ++t)
            w[t] = _mm512_zextsi256_si512(
                _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(
                        tile + t * stride + kk2 * 2 * kTile))));
        #pragma GCC unroll 16
        for (int r = 0; r < MR; ++r) {
            const __m512i av = activationPair(aq + r * lda, kk2);
            #pragma GCC unroll 16
            for (int t = 0; t < TN; ++t)
                acc[r][t] = _mm512_dpwssd_epi32(acc[r][t], av, w[t]);
        }
    }
    #pragma GCC unroll 16
    for (int t = 0; t < TN; ++t) {
        const __mmask8 mask = tileMask(jt + t, n);
        const float *pb = bias != nullptr ? bias + (jt + t) * kTile
                                          : nullptr;
        const float sw = scales[jt + t];
        #pragma GCC unroll 16
        for (int r = 0; r < MR; ++r) {
            const __m256i sum = _mm256_add_epi32(
                _mm512_castsi512_si256(acc[r][t]),
                _mm512_maskz_extracti64x4_epi64(0xff, acc[r][t], 1));
            __m256 v = _mm256_mul_ps(_mm256_cvtepi32_ps(sum),
                                     _mm256_set1_ps(sa[r] * sw));
            if (pb != nullptr)
                v = _mm256_add_ps(v, _mm256_maskz_loadu_ps(mask, pb));
            _mm256_mask_storeu_ps(c + r * n + (jt + t) * kTile, mask, v);
        }
    }
}

/** MR quantized rows over tiles [t0, t1), TN tiles at a time. */
template <int MR>
void
int8Rows(const std::int8_t *aq, std::int64_t lda, const float *sa,
         const std::int8_t *data, const float *scales, std::int64_t kp,
         std::int64_t n, const float *bias, std::int64_t t0,
         std::int64_t t1, float *c)
{
    constexpr int TN = MR == 1 ? 8 : 4;
    std::int64_t jt = t0;
    for (; jt + TN <= t1; jt += TN)
        int8Block<MR, TN>(aq, lda, sa, data, scales, kp, n, bias, jt, c);
    for (; jt < t1; ++jt)
        int8Block<MR, 1>(aq, lda, sa, data, scales, kp, n, bias, jt, c);
}

/**
 * Tiles per group of the row-block sweep: rows run in blocks of four
 * inside each group, so a group's weights stay cached while every row
 * block reads them.
 */
constexpr std::int64_t kGroup = 16;

} // namespace

void
packedTiles(const float *a, std::int64_t m, std::int64_t k,
            const float *data, std::int64_t n, const float *bias,
            std::int64_t t0, std::int64_t t1, float *c)
{
    for (std::int64_t g0 = t0; g0 < t1; g0 += kGroup) {
        const std::int64_t g1 = g0 + kGroup < t1 ? g0 + kGroup : t1;
        std::int64_t i = 0;
        for (; i + 4 <= m; i += 4)
            packedRows<4>(a + i * k, k, data, n, bias, g0, g1, c + i * n);
        const float *ai = a + i * k;
        float *ci = c + i * n;
        switch (m - i) {
        case 3: packedRows<3>(ai, k, data, n, bias, g0, g1, ci); break;
        case 2: packedRows<2>(ai, k, data, n, bias, g0, g1, ci); break;
        case 1: packedRows<1>(ai, k, data, n, bias, g0, g1, ci); break;
        default: break;
        }
    }
}

void
int8Tiles(const std::int8_t *aq, std::int64_t lda, const float *sa,
          std::int64_t m, const std::int8_t *data, const float *scales,
          std::int64_t kp, std::int64_t n, const float *bias,
          std::int64_t t0, std::int64_t t1, float *c)
{
    for (std::int64_t g0 = t0; g0 < t1; g0 += kGroup) {
        const std::int64_t g1 = g0 + kGroup < t1 ? g0 + kGroup : t1;
        std::int64_t i = 0;
        for (; i + 4 <= m; i += 4)
            int8Rows<4>(aq + i * lda, lda, sa + i, data, scales, kp, n,
                        bias, g0, g1, c + i * n);
        const std::int8_t *ai = aq + i * lda;
        const float *si = sa + i;
        float *ci = c + i * n;
        switch (m - i) {
        case 3:
            int8Rows<3>(ai, lda, si, data, scales, kp, n, bias, g0, g1, ci);
            break;
        case 2:
            int8Rows<2>(ai, lda, si, data, scales, kp, n, bias, g0, g1, ci);
            break;
        case 1:
            int8Rows<1>(ai, lda, si, data, scales, kp, n, bias, g0, g1, ci);
            break;
        default:
            break;
        }
    }
}

float
quantizeRow(const float *row, std::int64_t k, std::int8_t *out)
{
    __m512 vmax = _mm512_setzero_ps();
    std::int64_t i = 0;
    // max(|x|, acc) returns acc when x is NaN, as the scalar
    // std::max(absmax, |x|) does.
    for (; i + 16 <= k; i += 16)
        vmax = _mm512_max_ps(_mm512_abs_ps(_mm512_loadu_ps(row + i)),
                             vmax);
    const auto tail = static_cast<__mmask16>((1u << (k - i)) - 1u);
    if (i < k)
        vmax = _mm512_max_ps(
            _mm512_abs_ps(_mm512_maskz_loadu_ps(tail, row + i)), vmax);
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, vmax);
    float absmax = 0.0f;
    for (float lane : lanes)
        absmax = lane > absmax ? lane : absmax;
    if (absmax == 0.0f)
        return 0.0f;
    const __m512 inv = _mm512_set1_ps(127.0f / absmax);
    const __m512i lo = _mm512_set1_epi32(-127);
    const __m512i hi = _mm512_set1_epi32(127);
    for (i = 0; i + 16 <= k; i += 16) {
        const __m512i q = _mm512_cvtps_epi32(
            _mm512_mul_ps(_mm512_loadu_ps(row + i), inv));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         _mm512_cvtepi32_epi8(_mm512_max_epi32(
                             _mm512_min_epi32(q, hi), lo)));
    }
    if (i < k) {
        const __m512i q = _mm512_cvtps_epi32(
            _mm512_mul_ps(_mm512_maskz_loadu_ps(tail, row + i), inv));
        _mm512_mask_cvtepi32_storeu_epi8(
            out + i, tail,
            _mm512_max_epi32(_mm512_min_epi32(q, hi), lo));
    }
    return absmax / 127.0f;
}

} // namespace avx512
} // namespace runtime
} // namespace lia
