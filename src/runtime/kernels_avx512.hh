/**
 * @file
 * Inner kernels of the AVX-512 (BW + VL + VNNI) kernel tier.
 *
 * Internal to the runtime library: kernels.cc calls these only after
 * CPUID reported every feature they need (see activeKernelTier()).
 * The interface is raw pointers and integers so that the translation
 * unit compiled with AVX-512 flags instantiates no library inline
 * function another caller could end up sharing.
 */

#ifndef LIA_RUNTIME_KERNELS_AVX512_HH
#define LIA_RUNTIME_KERNELS_AVX512_HH

#include <cstdint>

namespace lia {
namespace runtime {
namespace avx512 {

/**
 * C[:, tiles t0..t1) = A x B (+ bias) against a PackedMatrix payload
 * (@p data, layout [tile][k][8]): all @p m rows of A (row stride k),
 * C with row stride n. Each output element accumulates k-ascending,
 * one multiply then one add per step, as scalarMatmul does.
 */
void packedTiles(const float *a, std::int64_t m, std::int64_t k,
                 const float *data, std::int64_t n, const float *bias,
                 std::int64_t t0, std::int64_t t1, float *c);

/**
 * C[:, tiles t0..t1) for @p m quantized rows (codes @p aq, row stride
 * @p lda = 2 * kp, scales @p sa) against a PackedInt8Matrix payload
 * (@p data, layout [tile][kPair][8][2], tile scales @p scales): exact
 * int32 sums, then the shared dequant expression.
 */
void int8Tiles(const std::int8_t *aq, std::int64_t lda, const float *sa,
               std::int64_t m, const std::int8_t *data,
               const float *scales, std::int64_t kp, std::int64_t n,
               const float *bias, std::int64_t t0, std::int64_t t1,
               float *c);

/** The activation quantizer, same contract as the scalar one. */
float quantizeRow(const float *row, std::int64_t k, std::int8_t *out);

/**
 * One (row, head) item of attention(): @p tokens query rows at @p q
 * (row stride @p stride) over the first @p len keys and values at
 * @p k and @p v (token stride @p rs), written to @p out (row stride
 * @p stride). Query row t attends to keys [0, len - tokens + t + 1).
 * Scores, softmax and S·V run scalarAttention's float operations in
 * its order; @p scratch holds attentionScratch(tokens, len, dh)
 * floats.
 */
void attentionHead(const float *q, std::int64_t stride, const float *k,
                   const float *v, std::int64_t rs, std::int64_t len,
                   std::int64_t tokens, std::int64_t dh, float scale,
                   bool round, float *out, float *scratch);

/** Scratch floats attentionHead needs for one item. */
std::int64_t attentionScratch(std::int64_t tokens, std::int64_t len,
                              std::int64_t dh);

} // namespace avx512
} // namespace runtime
} // namespace lia

#endif // LIA_RUNTIME_KERNELS_AVX512_HH
