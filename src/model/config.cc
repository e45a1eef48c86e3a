#include "model/config.hh"

#include <algorithm>

#include "base/logging.hh"
#include "base/units.hh"

namespace lia {
namespace model {

double
ModelConfig::decoderLayerParams() const
{
    const double d = static_cast<double>(dModel);
    const double kv = static_cast<double>(kvDim());
    const double f = static_cast<double>(ffnDim);

    // Attention: Q (d x d), K and V (d x kvDim each), output (d x d).
    const double attn = d * d + 2.0 * d * kv + d * d;
    // FFN: up (d x f) and down (f x d); gated models add a gate matrix.
    double ffn = (gatedFfn ? 3.0 : 2.0) * d * f;
    // MoE replicates the FFN per expert (all experts are stored).
    ffn *= static_cast<double>(numExperts);
    return attn + ffn;
}

double
ModelConfig::totalParams() const
{
    const double d = static_cast<double>(dModel);
    const double embed = static_cast<double>(vocabSize) * d +
                         static_cast<double>(maxSeqLen) * d;
    // Tied LM head; final layer norm and biases are negligible.
    return static_cast<double>(numLayers) * decoderLayerParams() + embed;
}

double
ModelConfig::decoderLayerParamBytes() const
{
    return weightBytesPerElement * decoderLayerParams();
}

double
ModelConfig::totalParamBytes() const
{
    return weightBytesPerElement * totalParams();
}

double
ModelConfig::kvBytesPerToken() const
{
    // K and V, kvDim elements each, per layer.
    return units::bytesPerElement * 2.0 *
           static_cast<double>(kvDim()) *
           static_cast<double>(numLayers);
}

void
ModelConfig::validate() const
{
    LIA_ASSERT(dModel > 0 && numLayers > 0 && numHeads > 0,
               name, ": incomplete config");
    LIA_ASSERT(headDim * numHeads == dModel,
               name, ": heads * headDim != dModel");
    LIA_ASSERT(kvHeads > 0 && numHeads % kvHeads == 0,
               name, ": query heads must be a multiple of kv heads");
    LIA_ASSERT(ffnDim > 0 && maxSeqLen > 0 && vocabSize > 0,
               name, ": incomplete config");
    LIA_ASSERT(numExperts >= 1 && expertTopK >= 1 &&
               expertTopK <= numExperts,
               name, ": bad MoE parameters");
    LIA_ASSERT(weightBytesPerElement > 0 &&
               weightBytesPerElement <= units::bytesPerElement,
               name, ": bad weight precision");
}

std::string
ModelConfig::contextOverflow(std::int64_t tokens) const
{
    if (tokens <= maxSeqLen)
        return "";
    return "context of " + std::to_string(tokens) + " tokens exceeds " +
           name + "'s " + std::to_string(maxSeqLen) + "-token limit";
}

const char *
toString(WeightPrecision precision)
{
    switch (precision) {
      case WeightPrecision::Bf16:
        return "BF16";
      case WeightPrecision::Int8:
        return "INT8";
      case WeightPrecision::Int4:
        return "INT4";
    }
    LIA_PANIC("unknown precision");
}

ModelConfig
quantized(ModelConfig config, WeightPrecision precision)
{
    switch (precision) {
      case WeightPrecision::Bf16:
        config.weightBytesPerElement = 2.0;
        break;
      case WeightPrecision::Int8:
        config.weightBytesPerElement = 1.0;
        config.name += "-int8";
        break;
      case WeightPrecision::Int4:
        config.weightBytesPerElement = 0.5;
        config.name += "-int4";
        break;
    }
    return config;
}

namespace {

ModelConfig
makeOpt(std::string name, std::int64_t d, std::int64_t layers,
        std::int64_t heads)
{
    ModelConfig m;
    m.name = std::move(name);
    m.dModel = d;
    m.numLayers = layers;
    m.numHeads = heads;
    m.kvHeads = heads;
    m.headDim = d / heads;
    m.ffnDim = 4 * d;
    m.maxSeqLen = 2048;
    m.vocabSize = 50272;
    m.validate();
    return m;
}

} // namespace

ModelConfig
opt13b()
{
    return makeOpt("OPT-13B", 5120, 40, 40);
}

ModelConfig
opt30b()
{
    return makeOpt("OPT-30B", 7168, 48, 56);
}

ModelConfig
opt66b()
{
    return makeOpt("OPT-66B", 9216, 64, 72);
}

ModelConfig
opt175b()
{
    return makeOpt("OPT-175B", 12288, 96, 96);
}

ModelConfig
llama2_70b()
{
    ModelConfig m;
    m.name = "Llama2-70B";
    m.dModel = 8192;
    m.numLayers = 80;
    m.numHeads = 64;
    m.kvHeads = 8;  // grouped-query attention
    m.headDim = 128;
    m.ffnDim = 28672;
    m.gatedFfn = true;
    m.maxSeqLen = 4096;
    m.vocabSize = 32000;
    m.validate();
    return m;
}

ModelConfig
chinchilla70b()
{
    ModelConfig m;
    m.name = "Chinchilla-70B";
    m.dModel = 8192;
    m.numLayers = 80;
    m.numHeads = 64;
    m.kvHeads = 64;
    m.headDim = 128;
    m.ffnDim = 4 * 8192;
    m.maxSeqLen = 2048;
    m.vocabSize = 32000;
    m.validate();
    return m;
}

ModelConfig
bloom176b()
{
    ModelConfig m;
    m.name = "Bloom-176B";
    m.dModel = 14336;
    m.numLayers = 70;
    m.numHeads = 112;
    m.kvHeads = 112;
    m.headDim = 128;
    m.ffnDim = 4 * 14336;
    m.maxSeqLen = 2048;
    m.vocabSize = 250880;
    m.validate();
    return m;
}

ModelConfig
moeMixtral8x7b()
{
    ModelConfig m;
    m.name = "MoE-8x7B";
    m.dModel = 4096;
    m.numLayers = 32;
    m.numHeads = 32;
    m.kvHeads = 8;
    m.headDim = 128;
    m.ffnDim = 14336;
    m.gatedFfn = true;
    m.numExperts = 8;
    m.expertTopK = 2;
    m.maxSeqLen = 4096;
    m.vocabSize = 32000;
    m.validate();
    return m;
}

ModelConfig
modelByName(const std::string &name)
{
    WeightPrecision precision = WeightPrecision::Bf16;
    std::string base = name;
    auto strip = [&](const std::string &suffix, WeightPrecision p) {
        if (base.size() > suffix.size() &&
            base.substr(base.size() - suffix.size()) == suffix) {
            base = base.substr(0, base.size() - suffix.size());
            precision = p;
        }
    };
    strip("-int8", WeightPrecision::Int8);
    strip("-int4", WeightPrecision::Int4);

    ModelConfig m;
    if (base == "OPT-13B")
        m = opt13b();
    else if (base == "OPT-30B")
        m = opt30b();
    else if (base == "OPT-66B")
        m = opt66b();
    else if (base == "OPT-175B")
        m = opt175b();
    else if (base == "Llama2-70B")
        m = llama2_70b();
    else if (base == "Chinchilla-70B")
        m = chinchilla70b();
    else if (base == "Bloom-176B")
        m = bloom176b();
    else if (base == "MoE-8x7B")
        m = moeMixtral8x7b();
    else if (base == "tiny-opt")
        m = tinyOpt();
    else if (base == "tiny-llama")
        m = tinyLlama();
    else
        LIA_FATAL("unknown model '", name, "'");
    return quantized(m, precision);
}

std::vector<std::string>
knownModelNames()
{
    return {"OPT-13B",    "OPT-30B",        "OPT-66B",
            "OPT-175B",   "Llama2-70B",     "Chinchilla-70B",
            "Bloom-176B", "MoE-8x7B",       "tiny-opt",
            "tiny-llama"};
}

ModelConfig
tinyOpt(std::int64_t d_model, std::int64_t layers, std::int64_t heads,
        std::int64_t max_seq, std::int64_t vocab)
{
    ModelConfig m;
    m.name = "tiny-opt";
    m.dModel = d_model;
    m.numLayers = layers;
    m.numHeads = heads;
    m.kvHeads = heads;
    m.headDim = d_model / heads;
    m.ffnDim = 4 * d_model;
    m.maxSeqLen = max_seq;
    m.vocabSize = vocab;
    m.validate();
    return m;
}

ModelConfig
tinyLlama(std::int64_t d_model, std::int64_t layers,
          std::int64_t heads, std::int64_t kv_heads,
          std::int64_t max_seq, std::int64_t vocab)
{
    ModelConfig m;
    m.name = "tiny-llama";
    m.dModel = d_model;
    m.numLayers = layers;
    m.numHeads = heads;
    m.kvHeads = kv_heads;
    m.headDim = d_model / heads;
    // Llama uses ~8/3 * d, rounded; keep a clean multiple here.
    m.ffnDim = 3 * d_model;
    m.gatedFfn = true;
    m.maxSeqLen = max_seq;
    m.vocabSize = vocab;
    m.validate();
    return m;
}

ModelConfig
draftModelConfig(const ModelConfig &target)
{
    ModelConfig draft = target;
    draft.name = target.name + "-draft";
    // Half the heads and half the depth, keeping the per-head width:
    // the draft shrinks in both the d_model^2 and the layer-count
    // factors (a ~8x parameter cut) while every dimension relation
    // validate() enforces is preserved by construction.
    draft.numHeads = std::max<std::int64_t>(1, target.numHeads / 2);
    draft.dModel = draft.numHeads * target.headDim;
    // GQA grouping survives when it divides the new head count;
    // otherwise collapse to MHA at the reduced width.
    draft.kvHeads = target.kvHeads < draft.numHeads &&
                            draft.numHeads % target.kvHeads == 0
                        ? target.kvHeads
                        : draft.numHeads;
    draft.numLayers = std::max<std::int64_t>(1, target.numLayers / 2);
    // Same FFN expansion ratio at the reduced width.
    draft.ffnDim = std::max<std::int64_t>(
        1, target.ffnDim * draft.dModel / target.dModel);
    // Drafting a sparse mixture with a dense proposer is the usual
    // deployment; one expert keeps the draft cheap and simple.
    draft.numExperts = 1;
    draft.expertTopK = 1;
    draft.validate();
    return draft;
}

} // namespace model
} // namespace lia
