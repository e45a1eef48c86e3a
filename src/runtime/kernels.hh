/**
 * @file
 * Numeric kernels of the functional back-end.
 *
 * Cache-blocked, optionally multi-threaded implementations of the
 * operations a decoder layer needs, plus retained single-thread scalar
 * references. Every kernel optionally rounds its output through BF16 so
 * the runtime reproduces half-precision numerics. Kernels are device
 * agnostic — the executor charges their cost to whichever SimDevice the
 * policy selected, so results are bit-identical regardless of policy
 * (a key invariant the integration tests check).
 *
 * Determinism policy (DESIGN.md §7): parallel kernels partition work
 * into self-contained units — whole output rows, fixed column tiles,
 * disjoint element ranges — whose internal floating-point operation
 * order matches the scalar reference exactly. Results are therefore
 * bit-identical to the references at any thread count, which keeps the
 * golden greedy-decode and differential suites valid oracles.
 */

#ifndef LIA_RUNTIME_KERNELS_HH
#define LIA_RUNTIME_KERNELS_HH

#include <span>

#include "base/thread_pool.hh"
#include "runtime/tensor.hh"

namespace lia {

namespace obs {
class KernelProfiler;
} // namespace obs

namespace runtime {

struct KvLayerView;

/** Kernel numeric and execution options. */
struct KernelOptions
{
    bool bf16Rounding = true;  //!< round outputs through BF16
    /**
     * Pool running the kernel's data-parallel loops; nullptr executes
     * serially inline. Thread count never changes results.
     */
    base::ThreadPool *pool = nullptr;
    /**
     * Wall-clock profiler receiving one scoped timing per kernel
     * invocation; nullptr — the default — skips even the clock reads,
     * leaving the hot path untouched (ExecutorConfig::profileKernels
     * is the switch). Profiling never changes results.
     */
    obs::KernelProfiler *profiler = nullptr;
};

/**
 * A weight matrix repacked for the blocked matmul inner kernel: the
 * logical (k, n) operand is reordered into column tiles of
 * kPackTileWidth — layout [tile][k][tileWidth], zero-padded in the
 * final tile — so the microkernel streams one contiguous, cache-
 * resident buffer per tile. Packing is layout-only: matmulPacked
 * accumulates in exactly scalarMatmul's k-order, so results are
 * bit-identical to it.
 */
struct PackedMatrix
{
    std::int64_t k = 0;     //!< inner (reduction) extent
    std::int64_t n = 0;     //!< output columns
    std::vector<float> data;

    bool empty() const { return data.empty(); }
    std::int64_t tiles() const;
    double fp32Bytes() const
    {
        return 4.0 * static_cast<double>(data.size());
    }
};

/** Column-tile width of PackedMatrix (8 floats = two SSE vectors). */
inline constexpr std::int64_t kPackTileWidth = 8;

/** Pack a (k, n) operand. */
PackedMatrix packColumns(const Tensor &b);

/** Pack a (n, k) operand as its logical (k, n) transpose B^T. */
PackedMatrix packTransposed(const Tensor &b);

/**
 * A weight matrix repacked into the int8 VNNI-style tile format (the
 * ik_llama.cpp AMX lesson: quantize + reorder once at load, then every
 * matmul streams the compact form). Layout: per 8-column tile, k is
 * walked in pairs and each pair's two bytes for one column sit
 * adjacent — data[tile][kPair][column][parity] — which is exactly the
 * operand order of pmaddwd-style multiply-accumulate (and of AMX tile
 * rows). Odd k and partial final tiles are zero-padded; padding
 * contributes exact integer zeros, never changing results.
 *
 * Quantization is symmetric absmax with one fp32 scale per column
 * tile: q = round(w / scale), scale = absmax / 127 (scale 0 and q = 0
 * for an all-zero tile). Activations are quantized per row at matmul
 * time with the same rule, products accumulate in int32 — exact, so
 * any blocking/threading order yields identical sums — and one shared
 * dequant expression maps each sum back to fp32. That is the whole
 * determinism argument: the int8 kernels are bit-identical to
 * scalarMatmulInt8 at any thread count by construction (DESIGN.md
 * §12).
 */
struct PackedInt8Matrix
{
    std::int64_t k = 0;     //!< inner (reduction) extent
    std::int64_t n = 0;     //!< output columns
    std::vector<std::int8_t> data;  //!< [tile][kPair][8 cols][2]
    std::vector<float> scales;      //!< one per column tile

    bool empty() const { return data.empty(); }
    std::int64_t tiles() const;
    /** k rounded up to pairs (the padded reduction extent). */
    std::int64_t kPairs() const { return (k + 1) / 2; }
    /** Stored bytes: int8 payload plus fp32 tile scales. */
    double int8Bytes() const
    {
        return static_cast<double>(data.size()) +
               4.0 * static_cast<double>(scales.size());
    }
};

/**
 * True when an (k, n) operand can take the int8 path: the int32
 * accumulator holds k pairwise products of magnitude <= 2*127*127, so
 * the reduction extent is bounded (~133k — far above any real model's
 * hidden dimension). Placement decisions consult this; a tensor that
 * fails stays on the fp32 packed path.
 */
bool int8PackViable(std::int64_t k);

/** Quantize + pack a (k, n) operand into int8 tiles. */
PackedInt8Matrix packColumnsInt8(const Tensor &b);

/**
 * C = A x B (+ bias) against a pre-packed operand: the register-
 * blocked tile microkernel behind the executor's weight matmuls.
 * Bit-identical to scalarMatmul(a, unpacked, bias) at any thread
 * count.
 */
Tensor matmulPacked(const Tensor &a, const PackedMatrix &b,
                    const Tensor &bias, const KernelOptions &opts = {});

/**
 * Retained single-thread scalar references. The packed and tiered
 * kernels must match them bit for bit; the property suites and the
 * kernel-throughput benchmark compare against them.
 *
 * scalarMatmul: C = A x B (+ bias broadcast over rows), A (m, k),
 * B (k, n), bias (n) or an empty tensor to skip it.
 * scalarMatmulTransposed: C = A x B^T, with A (m, k) and B (n, k).
 */
Tensor scalarMatmul(const Tensor &a, const Tensor &b, const Tensor &bias,
                    const KernelOptions &opts = {});
Tensor scalarMatmulTransposed(const Tensor &a, const Tensor &b,
                              const KernelOptions &opts = {});

/**
 * C = quant(A) x B8 (+ bias) against an int8-packed operand: dynamic
 * per-row activation quantization, int32 accumulation, fused dequant
 * into the fp32 output. The active kernel tier supplies a wide fused
 * dequant-GEMV for m < 4 decode rows and register-blocked tiles for
 * m >= 4; loops are sized by work, so decode shapes run inline or on
 * the pool's low-latency path. Quantized numerics differ from fp32 by
 * design; against scalarMatmulInt8 the result is bit-identical at any
 * thread count and on every tier.
 */
Tensor matmulInt8(const Tensor &a, const PackedInt8Matrix &b,
                  const Tensor &bias, const KernelOptions &opts = {});

/**
 * Retained single-thread scalar reference of the int8 path: same
 * quantizer, same int32 accumulation order, same dequant expression,
 * no SIMD, no pool. The property suite memcmps every int8 kernel
 * against it.
 */
Tensor scalarMatmulInt8(const Tensor &a, const PackedInt8Matrix &b,
                        const Tensor &bias,
                        const KernelOptions &opts = {});

/**
 * One instruction-set tier of the matmul and attention kernels
 * (DESIGN.md §7): its entry points, with the same contracts as
 * matmulPacked, matmulInt8, the activation quantizer of
 * scalarMatmulInt8 and attention. Every tier is bit-identical to the
 * scalar references; tiers differ only in speed. matmulPacked,
 * matmulInt8 and attention run activeKernelTier(). The property suites
 * call each tier here directly, so every tier the host can run is
 * tested whichever one is active.
 */
struct KernelTier
{
    const char *name;
    Tensor (*matmulPacked)(const Tensor &a, const PackedMatrix &b,
                           const Tensor &bias, const KernelOptions &opts);
    Tensor (*matmulInt8)(const Tensor &a, const PackedInt8Matrix &b,
                         const Tensor &bias, const KernelOptions &opts);
    /**
     * Quantize one activation row of @p k floats into @p out (2 *
     * ceil(k / 2) bytes, arriving zeroed); returns the row scale.
     */
    float (*quantizeRowInt8)(const float *row, std::int64_t k,
                             std::int8_t *out);
    /** attention(), bit-identical to scalarAttention. */
    Tensor (*attention)(const Tensor &q, std::span<const KvLayerView> kv,
                        std::int64_t heads, std::int64_t kvHeads,
                        std::int64_t headDim, const KernelOptions &opts);
};

/** The SSE2 tier (portable scalar code on non-x86 builds). */
const KernelTier &sse2KernelTier();

/**
 * The AVX-512 BW+VL+VNNI tier, or nullptr when this build or this
 * host's CPUID lacks it.
 */
const KernelTier *avx512KernelTier();

/** The tier the kernels run on: the widest one CPUID allows, chosen
 *  once per process. */
const KernelTier &activeKernelTier();

/**
 * Row-wise softmax with a causal mask: row i may attend to columns
 * 0..(offset + i); later columns receive zero probability. An offset
 * of at least the column count disables the mask. The softmax of
 * scalarAttention; the runtime's own runs inside the attention tiers.
 */
void causalSoftmaxRows(Tensor &t, std::int64_t offset,
                       const KernelOptions &opts = {});

/**
 * Causal multi-head attention reading K and V in place, one cache view
 * per batch row — a batch-B cache contributes B views of itself, and
 * a forward pass over many sequences one view of each, so both the
 * contexts and the query counts may be ragged. View b owns
 * `kv[b].queries` query rows (its tokens this step); query row t of
 * view b and head h attends to the first `kv[b].length -
 * kv[b].queries + t + 1` tokens of the view, using KV head
 * h / (heads / kvHeads) (grouped-query attention when kvHeads <
 * heads). Parallel over (row, head), sized by the summed work of the
 * rows; each head runs scalarAttention's float operations in its
 * order — QK^T dot products k-ascending from 0, BF16 rounding then
 * scaling of the scores, the causal softmax and its rounding, S·V
 * accumulated j-ascending into zeroed rows and its rounding — so the
 * result is bit-identical to it at any thread count.
 *
 * @param q   (Σ kv[b].queries, heads * headDim): each view's query
 *            rows in view order
 * @param kv  one view per batch row; each length includes this step's
 *            tokens
 * @return    (Σ kv[b].queries, heads * headDim), rows as in @p q
 */
Tensor attention(const Tensor &q, std::span<const KvLayerView> kv,
                 std::int64_t heads, std::int64_t kvHeads,
                 std::int64_t headDim, const KernelOptions &opts = {});

/**
 * Retained single-thread reference of attention(): per row and head,
 * copy Q, K and V out into dense tensors, then compose
 * scalarMatmulTransposed, the score scaling, causalSoftmaxRows and
 * scalarMatmul.
 */
Tensor scalarAttention(const Tensor &q, std::span<const KvLayerView> kv,
                       std::int64_t heads, std::int64_t kvHeads,
                       std::int64_t headDim,
                       const KernelOptions &opts = {});

/** LayerNorm over the last axis with learned gain/bias (both (n)). */
Tensor layerNorm(const Tensor &x, const Tensor &gain, const Tensor &bias,
                 const KernelOptions &opts = {});

/** Elementwise ReLU (OPT's FFN activation). */
void reluInPlace(Tensor &t, const KernelOptions &opts = {});

/** Elementwise SiLU x*sigmoid(x) (Llama's gated-FFN activation). */
void siluInPlace(Tensor &t, const KernelOptions &opts = {});

/** Elementwise product a *= b (gating). */
void mulInPlace(Tensor &a, const Tensor &b,
                const KernelOptions &opts = {});

/** Elementwise sum of two same-shape tensors. */
Tensor add(const Tensor &a, const Tensor &b,
           const KernelOptions &opts = {});

/**
 * Row-wise argmax of a 2-D tensor (greedy sampling). Ties resolve to
 * the first (lowest) index — greedy-decode determinism depends on
 * that. NaN logits never win: they are skipped, and a row whose
 * logits are all NaN yields index 0, so one sequence's numeric
 * blow-up degrades to a garbage-but-deterministic token instead of
 * killing the serving process.
 */
std::vector<std::int64_t> argmaxRows(const Tensor &t);

} // namespace runtime
} // namespace lia

#endif // LIA_RUNTIME_KERNELS_HH
