/**
 * @file
 * LLM architecture descriptors.
 *
 * Covers the decoder-only transformer family the paper evaluates (OPT
 * models) and generalises to Llama2/Chinchilla/Bloom (§7.7) and MoE
 * variants (§7.1 "Adaptability to other models"): grouped-query
 * attention, gated FFNs, and expert-parallel FFNs all change the Table-1
 * data-size/compute entries, which model/sublayer.hh derives from this
 * structure.
 */

#ifndef LIA_MODEL_CONFIG_HH
#define LIA_MODEL_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

namespace lia {
namespace model {

/** Architecture of a decoder-only transformer LLM. */
struct ModelConfig
{
    std::string name;

    std::int64_t dModel = 0;      //!< hidden size d_m
    std::int64_t numLayers = 0;   //!< decoder layer count N
    std::int64_t numHeads = 0;    //!< query heads n_h
    std::int64_t kvHeads = 0;     //!< key/value heads (== numHeads for MHA)
    std::int64_t headDim = 0;     //!< per-head dimension d_h
    std::int64_t ffnDim = 0;      //!< FFN inner dimension (4*d_m for OPT)
    std::int64_t maxSeqLen = 0;   //!< model-defined maximum context
    std::int64_t vocabSize = 0;

    bool gatedFfn = false;        //!< Llama-style SwiGLU (3 FFN matrices)
    std::int64_t numExperts = 1;  //!< MoE expert count (1 == dense)
    std::int64_t expertTopK = 1;  //!< experts activated per token

    /**
     * Bytes per *weight* element: 2.0 for BF16 (the paper's setting),
     * 1.0 for INT8, 0.5 for INT4 weight-only quantization (§1
     * discusses the compression alternative; activations and KV stay
     * BF16 as in standard weight-only schemes).
     */
    double weightBytesPerElement = 2.0;

    /** KV projection width in elements (kvHeads * headDim). */
    std::int64_t kvDim() const { return kvHeads * headDim; }

    /** Parameter count of one decoder layer (elements). */
    double decoderLayerParams() const;

    /** Total parameter count including embeddings and LM head. */
    double totalParams() const;

    /** Bytes of one decoder layer's parameters at BF16. */
    double decoderLayerParamBytes() const;

    /** Bytes of all parameters at BF16. */
    double totalParamBytes() const;

    /** Bytes of KV cache per token of context across all layers. */
    double kvBytesPerToken() const;

    /** Validate internal consistency; panics on malformed configs. */
    void validate() const;

    /**
     * Why a context of @p tokens does not fit this model ("context of
     * 4032 tokens exceeds OPT-30B's 2048-token limit"), or "" when it
     * fits. Front ends hand a non-empty answer to
     * ArgParser::usageError; the engines assert the bound instead.
     */
    std::string contextOverflow(std::int64_t tokens) const;
};

/** Weight storage precision for quantized variants. */
enum class WeightPrecision { Bf16, Int8, Int4 };

const char *toString(WeightPrecision precision);

/** A copy of @p config with weight-only quantization applied. */
ModelConfig quantized(ModelConfig config, WeightPrecision precision);

/**
 * Look up a model preset by name (e.g. "OPT-30B", "Llama2-70B",
 * optionally suffixed "-int8"/"-int4"); fatal on unknown names.
 */
ModelConfig modelByName(const std::string &name);

/** Names accepted by modelByName (without precision suffixes). */
std::vector<std::string> knownModelNames();

// --- Model presets ---------------------------------------------------------

ModelConfig opt13b();
ModelConfig opt30b();
ModelConfig opt66b();
ModelConfig opt175b();
ModelConfig llama2_70b();
ModelConfig chinchilla70b();
ModelConfig bloom176b();

/** Mixtral-style sparse MoE used in the §7.1 adaptability discussion. */
ModelConfig moeMixtral8x7b();

/**
 * A miniature OPT-style model for functional tests and the runtime
 * examples: real inference completes in milliseconds.
 */
ModelConfig tinyOpt(std::int64_t d_model = 64, std::int64_t layers = 4,
                    std::int64_t heads = 4, std::int64_t max_seq = 128,
                    std::int64_t vocab = 256);

/**
 * A miniature Llama-style model (grouped-query attention + gated
 * SwiGLU FFN) exercising the runtime's non-OPT code paths.
 */
ModelConfig tinyLlama(std::int64_t d_model = 64,
                      std::int64_t layers = 4, std::int64_t heads = 4,
                      std::int64_t kv_heads = 2,
                      std::int64_t max_seq = 128,
                      std::int64_t vocab = 256);

/**
 * The speculative draft companion of @p target: half the width, heads,
 * and depth (floored at one), the same head geometry rules, and —
 * critically — the same vocabulary and context window, so its token
 * proposals are directly verifiable by the target (DESIGN.md §11).
 */
ModelConfig draftModelConfig(const ModelConfig &target);

} // namespace model
} // namespace lia

#endif // LIA_MODEL_CONFIG_HH
