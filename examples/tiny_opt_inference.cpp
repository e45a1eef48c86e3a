/**
 * @file
 * End-to-end functional inference through the cooperative back-end.
 *
 * Builds a miniature OPT-style model with synthetic weights, lets the
 * LIA front-end pick the offloading policies for the (simulated)
 * SPR-A100 platform, and actually runs generation through the
 * runtime: real GEMMs, attention, KV cache, greedy decoding. Prints
 * the generated token ids, the transfer ledger, and the modeled
 * device times — and cross-checks that a full-CPU plan produces
 * bit-identical tokens.
 *
 * Usage: tiny_opt_inference [batch] [l_in] [l_out]
 */

#include <iostream>

#include "base/args.hh"
#include "base/table.hh"
#include "core/optimizer.hh"
#include "hw/system.hh"
#include "runtime/executor.hh"

int
main(int argc, char **argv)
{
    using namespace lia;
    using core::Policy;

    const ArgParser args(argc, argv, "[batch] [l_in] [l_out]");
    const std::int64_t batch =
        args.positionalNumber<std::int64_t>(0, "batch", 2);
    const std::int64_t l_in =
        args.positionalNumber<std::int64_t>(1, "l_in", 12);
    const std::int64_t l_out =
        args.positionalNumber<std::int64_t>(2, "l_out", 8);

    const auto sys = hw::sprA100();
    const auto m = model::tinyOpt();
    Rng rng(2024);
    auto weights = runtime::TransformerWeights::random(m, rng);

    // Front-end: solve Eq. (1) for both stages.
    core::CostModel cm(sys, m, {});
    core::PolicyOptimizer opt(cm);
    runtime::ExecutorConfig plan;
    plan.prefillPolicy =
        opt.optimize({model::Stage::Prefill, batch, l_in}).policy;
    plan.decodePolicy =
        opt.optimize({model::Stage::Decode, batch, l_in}).policy;
    plan.residentLayers = 2;

    std::cout << "Tiny-OPT cooperative inference on " << sys.name
              << " (d=" << m.dModel << ", " << m.numLayers
              << " layers)\n"
              << "  prefill policy " << plan.prefillPolicy.toString()
              << ", decode policy " << plan.decodePolicy.toString()
              << ", " << plan.residentLayers
              << " GPU-resident layers\n\n";

    // Deterministic prompts.
    std::vector<std::vector<std::int64_t>> prompts;
    for (std::int64_t b = 0; b < batch; ++b) {
        std::vector<std::int64_t> p;
        for (std::int64_t t = 0; t < l_in; ++t)
            p.push_back((13 * b + 7 * t + 5) % m.vocabSize);
        prompts.push_back(std::move(p));
    }

    runtime::CooperativeExecutor exec(sys, weights, plan);
    const auto generated = exec.generate(prompts, l_out);

    for (std::size_t b = 0; b < generated.size(); ++b) {
        std::cout << "  seq " << b << " ->";
        for (auto tok : generated[b])
            std::cout << ' ' << tok;
        std::cout << '\n';
    }

    std::cout << "\nTransfer ledger (bytes over the "
              << sys.hostLink.name << ")\n";
    TextTable ledger({"traffic class", "bytes", "transfers share"});
    const auto &led = exec.ledger();
    for (auto cls : {runtime::Traffic::Param, runtime::Traffic::Kv,
                     runtime::Traffic::Activation}) {
        const double bytes = led.bytes(cls);
        ledger.addRow({runtime::toString(cls), fmtBytes(bytes),
                       fmtPercent(led.totalBytes() > 0
                                      ? bytes / led.totalBytes()
                                      : 0.0)});
    }
    ledger.print(std::cout);

    std::cout << "\nModeled device time: CPU "
              << fmtSeconds(exec.cpuDevice().busyTime()) << ", GPU "
              << fmtSeconds(exec.gpuDevice().busyTime()) << ", link "
              << fmtSeconds(exec.ledger().totalTime())
              << " (serial total "
              << fmtSeconds(exec.modeledSerialLatency()) << ")\n";

    // The plan must not change the numerics: re-run fully on the CPU.
    runtime::ExecutorConfig cpu_plan;
    runtime::CooperativeExecutor cpu_exec(sys, weights, cpu_plan);
    const bool identical = cpu_exec.generate(prompts, l_out) ==
                           generated;
    std::cout << "\nFull-CPU re-run produces "
              << (identical ? "bit-identical tokens — the plan only "
                              "moves work, never changes results."
                            : "DIFFERENT tokens — BUG!")
              << "\n";
    return identical ? 0 : 1;
}
