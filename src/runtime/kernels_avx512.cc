/**
 * @file
 * The AVX-512 (BW + VL + VNNI) tier of the matmul inner kernels and
 * of the attention item (DESIGN.md §7, §12).
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
 *  - attention: lanes are keys in the scores (each lane one chain
 *    over c ascending from 0) and output columns in S·V (each lane
 *    one chain over every key j ascending from 0), one multiply then
 *    one add per step, as the reference's matmuls do. The transposes
 *    only move floats. BF16 rounding is the scalar integer steps per
 *    lane; scaling and the division are single IEEE operations per
 *    element; the row max equals std::max's fold (below); std::exp
 *    and the sum it feeds run one key at a time in the reference's
 *    order, through the same libm expf.
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

// --- attention -------------------------------------------------------

/** Query rows from which attentionHead builds a K panel. */
constexpr std::int64_t kPanelTokens = 4;

/** Lanes [0, w) of a 16-float vector. */
inline __mmask16
laneMask(std::int64_t w)
{
    return w >= 16 ? static_cast<__mmask16>(0xffff)
                   : static_cast<__mmask16>((1u << w) - 1u);
}

/** @p n rounded up to whole 16-float vectors. */
inline std::int64_t
roundUp16(std::int64_t n)
{
    return (n + 15) & ~static_cast<std::int64_t>(15);
}

/** roundToBf16 on 16 lanes, by the same integer steps. */
inline __m512
roundBf16(__m512 x)
{
    const __m512i bits = _mm512_castps_si512(x);
    const __m512i lsb =
        _mm512_and_si512(_mm512_srli_epi32(bits, 16), _mm512_set1_epi32(1));
    const __m512i sum = _mm512_add_epi32(
        bits, _mm512_add_epi32(_mm512_set1_epi32(0x7FFF), lsb));
    return _mm512_castsi512_ps(_mm512_and_si512(
        sum, _mm512_set1_epi32(static_cast<int>(0xFFFF0000u))));
}

/**
 * Load up to 16 keys (@p nk rows of stride @p rs from @p k, columns
 * in @p cols) into r[0..16), zero rows past @p nk, and transpose the
 * block in registers: afterwards lane i of r[c] holds column c of key
 * i. Three shuffle stages — pairs, quads, 128-bit lanes — of 16
 * instructions each. Forced inline: out of line, GCC passes the 16
 * vectors through memory.
 */
[[gnu::always_inline]] inline void
loadKeysTransposed(const float *k, std::int64_t rs, std::int64_t nk,
                   __mmask16 cols, __m512 r[16])
{
    #pragma GCC unroll 16
    for (int i = 0; i < 16; ++i)
        r[i] = i < nk ? _mm512_maskz_loadu_ps(cols, k + i * rs)
                      : _mm512_setzero_ps();
    __m512 t[16];
    #pragma GCC unroll 16
    for (int i = 0; i < 16; i += 2) {
        t[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
    }
    #pragma GCC unroll 16
    for (int i = 0; i < 16; i += 4) {
        const __m512d a = _mm512_castps_pd(t[i]);
        const __m512d b = _mm512_castps_pd(t[i + 1]);
        const __m512d c = _mm512_castps_pd(t[i + 2]);
        const __m512d d = _mm512_castps_pd(t[i + 3]);
        r[i] = _mm512_castpd_ps(_mm512_unpacklo_pd(a, c));
        r[i + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(a, c));
        r[i + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(b, d));
        r[i + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(b, d));
    }
    // 128-bit lane L of r[4g + j] now holds column 4L + j of keys
    // 4g..4g+3; gather each column's four lanes.
    #pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
        const __m512 a = _mm512_shuffle_f32x4(r[j], r[4 + j], 0x44);
        const __m512 b = _mm512_shuffle_f32x4(r[j], r[4 + j], 0xee);
        const __m512 c = _mm512_shuffle_f32x4(r[8 + j], r[12 + j], 0x44);
        const __m512 d = _mm512_shuffle_f32x4(r[8 + j], r[12 + j], 0xee);
        t[j] = _mm512_shuffle_f32x4(a, c, 0x88);
        t[4 + j] = _mm512_shuffle_f32x4(a, c, 0xdd);
        t[8 + j] = _mm512_shuffle_f32x4(b, d, 0x88);
        t[12 + j] = _mm512_shuffle_f32x4(b, d, 0xdd);
    }
    #pragma GCC unroll 16
    for (int i = 0; i < 16; ++i)
        r[i] = t[i];
}

/**
 * Decode scores: R query rows (stride @p stride) against keys
 * [0, len), 16 keys per zmm. Each 16-key block is transposed once
 * per 16 columns and shared by the R rows; every score is one lane
 * summing c-ascending from 0. Row r's scores go to s + r * ls.
 */
template <int R>
void
decodeScores(const float *q, std::int64_t stride, const float *k,
             std::int64_t rs, std::int64_t len, std::int64_t dh,
             float *s, std::int64_t ls)
{
    for (std::int64_t j0 = 0; j0 < len; j0 += 16) {
        const std::int64_t nk = len - j0;
        __m512 acc[R];
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
            acc[r] = _mm512_setzero_ps();
        for (std::int64_t c0 = 0; c0 < dh; c0 += 16) {
            const std::int64_t w = dh - c0;
            __m512 col[16];
            loadKeysTransposed(k + j0 * rs + c0, rs, nk, laneMask(w), col);
            #pragma GCC unroll 16
            for (int c = 0; c < 16; ++c) {
                if (c >= w)
                    break;
                #pragma GCC unroll 4
                for (int r = 0; r < R; ++r)
                    acc[r] = _mm512_add_ps(
                        acc[r],
                        _mm512_mul_ps(_mm512_set1_ps(q[r * stride + c0 + c]),
                                      col[c]));
            }
        }
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
            _mm512_storeu_ps(s + r * ls + j0, acc[r]);
    }
}

/**
 * Transpose the K head (keys [0, len), stride @p rs) into a
 * (dh, lp) panel: panel[c * lp + j] = k_j[c], zero for j in
 * [len, lp).
 */
void
buildPanel(const float *k, std::int64_t rs, std::int64_t len,
           std::int64_t dh, float *panel, std::int64_t lp)
{
    for (std::int64_t j0 = 0; j0 < len; j0 += 16) {
        for (std::int64_t c0 = 0; c0 < dh; c0 += 16) {
            const std::int64_t w = dh - c0;
            __m512 col[16];
            loadKeysTransposed(k + j0 * rs + c0, rs, len - j0, laneMask(w),
                               col);
            #pragma GCC unroll 16
            for (int c = 0; c < 16; ++c) {
                if (c >= w)
                    break;
                _mm512_storeu_ps(panel + (c0 + c) * lp + j0, col[c]);
            }
        }
    }
}

/** Scores of keys [j, j + 16 * NB) from the panel: NB chains. */
template <int NB>
void
panelBlock(const float *q, const float *panel, std::int64_t lp,
           std::int64_t dh, std::int64_t j, float *s)
{
    __m512 acc[NB];
    #pragma GCC unroll 4
    for (int b = 0; b < NB; ++b)
        acc[b] = _mm512_setzero_ps();
    const float *col = panel + j;
    for (std::int64_t c = 0; c < dh; ++c, col += lp) {
        const __m512 x = _mm512_set1_ps(q[c]);
        #pragma GCC unroll 4
        for (int b = 0; b < NB; ++b)
            acc[b] = _mm512_add_ps(
                acc[b], _mm512_mul_ps(x, _mm512_loadu_ps(col + 16 * b)));
    }
    #pragma GCC unroll 4
    for (int b = 0; b < NB; ++b)
        _mm512_storeu_ps(s + j + 16 * b, acc[b]);
}

/**
 * Scores of one query row over keys [0, roundUp16(count)), 64 at a
 * time.
 */
void
panelScores(const float *q, const float *panel, std::int64_t lp,
            std::int64_t dh, std::int64_t count, float *s)
{
    std::int64_t j = 0;
    for (; count - j > 48; j += 64)
        panelBlock<4>(q, panel, lp, dh, j, s);
    switch ((count - j + 15) / 16) {
    case 3: panelBlock<3>(q, panel, lp, dh, j, s); break;
    case 2: panelBlock<2>(q, panel, lp, dh, j, s); break;
    case 1: panelBlock<1>(q, panel, lp, dh, j, s); break;
    default: break;
    }
}

/**
 * The reference's score rounding, scaling and causal softmax on one
 * row: keys [0, limit) live, [limit, len) zeroed. Only std::exp and
 * the j-ascending sum run one key at a time.
 */
void
softmaxRow(float *p, std::int64_t limit, std::int64_t len, float scale,
           bool round)
{
    const __m512 vscale = _mm512_set1_ps(scale);
    __m512 vmax = _mm512_setzero_ps();
    for (std::int64_t j = 0; j < limit; j += 16) {
        const __mmask16 m = laneMask(limit - j);
        __m512 x = _mm512_maskz_loadu_ps(m, p + j);
        if (round)
            x = roundBf16(x);
        x = _mm512_mul_ps(x, vscale);
        _mm512_mask_storeu_ps(p + j, m, x);
        // Every lane starts from p[0]; max(x, acc) keeps acc when
        // either is NaN, as std::max(acc, x) does, so a NaN p[0]
        // sticks and a later NaN is skipped. Otherwise the max of
        // the other values does not depend on their order, except
        // for the sign of a zero, which exp(p - max) does not see.
        if (j == 0)
            vmax = _mm512_broadcastss_ps(_mm512_castps512_ps128(x));
        vmax = _mm512_mask_max_ps(vmax, m, x, vmax);
    }
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, vmax);
    float max_val = lanes[0];
    for (int i = 1; i < 16; ++i)
        max_val = max_val < lanes[i] ? lanes[i] : max_val;
    // __builtin_expf is the libm expf that std::exp(float) calls.
    float sum = 0.0f;
    for (std::int64_t j = 0; j < limit; ++j) {
        p[j] = __builtin_expf(p[j] - max_val);
        sum += p[j];
    }
    const __m512 vsum = _mm512_set1_ps(sum);
    for (std::int64_t j = 0; j < limit; j += 16) {
        const __mmask16 m = laneMask(limit - j);
        __m512 x = _mm512_div_ps(_mm512_maskz_loadu_ps(m, p + j), vsum);
        if (round)
            x = roundBf16(x);
        _mm512_mask_storeu_ps(p + j, m, x);
    }
    for (std::int64_t j = limit; j < len; j += 16)
        _mm512_mask_storeu_ps(p + j, laneMask(len - j),
                              _mm512_setzero_ps());
}

/**
 * S·V for R query rows (probabilities p + r * lp) on output columns
 * [c0, c0 + 16 * NB) ∩ [c0, dh): each V row is loaded once for R * NB
 * accumulator chains, j-ascending from 0 over every key, masked ones
 * included.
 */
template <int R, int NB>
void
contextBlock(const float *p, std::int64_t lp, const float *v,
             std::int64_t rs, std::int64_t len, std::int64_t c0,
             std::int64_t dh, bool round, float *out, std::int64_t stride)
{
    __mmask16 mask[NB];
    __m512 acc[R][NB];
    #pragma GCC unroll 4
    for (int b = 0; b < NB; ++b) {
        mask[b] = laneMask(dh - c0 - 16 * b);
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
            acc[r][b] = _mm512_setzero_ps();
    }
    const float *vc = v + c0;
    for (std::int64_t j = 0; j < len; ++j, vc += rs) {
        __m512 vr[NB];
        #pragma GCC unroll 4
        for (int b = 0; b < NB; ++b)
            vr[b] = _mm512_maskz_loadu_ps(mask[b], vc + 16 * b);
        #pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            const __m512 w = _mm512_set1_ps(p[r * lp + j]);
            #pragma GCC unroll 4
            for (int b = 0; b < NB; ++b)
                acc[r][b] =
                    _mm512_add_ps(acc[r][b], _mm512_mul_ps(w, vr[b]));
        }
    }
    #pragma GCC unroll 4
    for (int r = 0; r < R; ++r)
        #pragma GCC unroll 4
        for (int b = 0; b < NB; ++b)
            _mm512_mask_storeu_ps(
                out + r * stride + c0 + 16 * b, mask[b],
                round ? roundBf16(acc[r][b]) : acc[r][b]);
}

/** S·V for R query rows over every output column, 64 at a time. */
template <int R>
void
contextRows(const float *p, std::int64_t lp, const float *v,
            std::int64_t rs, std::int64_t len, std::int64_t dh,
            bool round, float *out, std::int64_t stride)
{
    for (std::int64_t c0 = 0; c0 < dh; c0 += 64) {
        switch (dh - c0 > 48 ? 4 : (dh - c0 + 15) / 16) {
        case 4:
            contextBlock<R, 4>(p, lp, v, rs, len, c0, dh, round, out,
                               stride);
            break;
        case 3:
            contextBlock<R, 3>(p, lp, v, rs, len, c0, dh, round, out,
                               stride);
            break;
        case 2:
            contextBlock<R, 2>(p, lp, v, rs, len, c0, dh, round, out,
                               stride);
            break;
        default:
            contextBlock<R, 1>(p, lp, v, rs, len, c0, dh, round, out,
                               stride);
            break;
        }
    }
}

/** contextRows for a runtime row count in [1, 4]. */
void
contextRowsN(std::int64_t rows, const float *p, std::int64_t lp,
             const float *v, std::int64_t rs, std::int64_t len,
             std::int64_t dh, bool round, float *out, std::int64_t stride)
{
    switch (rows) {
    case 4: contextRows<4>(p, lp, v, rs, len, dh, round, out, stride); break;
    case 3: contextRows<3>(p, lp, v, rs, len, dh, round, out, stride); break;
    case 2: contextRows<2>(p, lp, v, rs, len, dh, round, out, stride); break;
    default: contextRows<1>(p, lp, v, rs, len, dh, round, out, stride); break;
    }
}

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

std::int64_t
attentionScratch(std::int64_t tokens, std::int64_t len, std::int64_t dh)
{
    const std::int64_t lp = roundUp16(len);
    return tokens < kPanelTokens ? tokens * lp
                                 : (dh + kPanelTokens) * lp;
}

void
attentionHead(const float *q, std::int64_t stride, const float *k,
              const float *v, std::int64_t rs, std::int64_t len,
              std::int64_t tokens, std::int64_t dh, float scale,
              bool round, float *out, float *scratch)
{
    const std::int64_t lp = roundUp16(len);
    if (tokens < kPanelTokens) {
        // Decode and short verifies: transpose K blocks on the fly,
        // shared by the few query rows.
        switch (tokens) {
        case 3: decodeScores<3>(q, stride, k, rs, len, dh, scratch, lp);
            break;
        case 2: decodeScores<2>(q, stride, k, rs, len, dh, scratch, lp);
            break;
        default: decodeScores<1>(q, stride, k, rs, len, dh, scratch, lp);
            break;
        }
        for (std::int64_t t = 0; t < tokens; ++t)
            softmaxRow(scratch + t * lp, len - tokens + t + 1, len, scale,
                       round);
        contextRowsN(tokens, scratch, lp, v, rs, len, dh, round, out,
                     stride);
        return;
    }
    // Prefill chunks: transpose the K head once, then sweep it per
    // query row, and run S·V over blocks of kPanelTokens rows.
    float *panel = scratch;
    float *p = scratch + dh * lp;
    buildPanel(k, rs, len, dh, panel, lp);
    for (std::int64_t t0 = 0; t0 < tokens; t0 += kPanelTokens) {
        const std::int64_t rows = tokens - t0 < kPanelTokens
                                      ? tokens - t0
                                      : kPanelTokens;
        for (std::int64_t r = 0; r < rows; ++r) {
            const std::int64_t limit = len - tokens + t0 + r + 1;
            float *pr = p + r * lp;
            panelScores(q + (t0 + r) * stride, panel, lp, dh, limit, pr);
            softmaxRow(pr, limit, len, scale, round);
        }
        contextRowsN(rows, p, lp, v, rs, len, dh, round,
                     out + t0 * stride, stride);
    }
}

} // namespace avx512
} // namespace runtime
} // namespace lia
