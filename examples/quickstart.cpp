/**
 * @file
 * Quickstart: plan and estimate one inference deployment with LIA.
 *
 * Builds the Table-2 SPR-H100 platform, asks the planner for the
 * optimal offloading policies for an OPT-66B serving scenario, and
 * prints the resulting plan — policies, GPU residency, memory
 * placement, and the predicted latency/throughput — next to the IPEX
 * and FlexGen baselines.
 *
 * Usage: quickstart [batch] [l_in] [l_out]
 */

#include <iostream>

#include "base/args.hh"
#include "baselines/presets.hh"
#include "base/table.hh"
#include "hw/system.hh"
#include "model/config.hh"

int
main(int argc, char **argv)
{
    using namespace lia;
    using core::Scenario;

    const ArgParser args(argc, argv, "[batch] [l_in] [l_out]");
    Scenario sc{args.positionalNumber<std::int64_t>(0, "batch", 1),
                args.positionalNumber<std::int64_t>(1, "l_in", 512),
                args.positionalNumber<std::int64_t>(2, "l_out", 32)};

    const auto sys = hw::sprH100();
    const auto m = model::opt66b();
    if (const auto why = m.contextOverflow(sc.lIn + sc.lOut); !why.empty())
        args.usageError(why);

    std::cout << "LIA quickstart: " << m.name << " on " << sys.name
              << ", B=" << sc.batch << " L_in=" << sc.lIn
              << " L_out=" << sc.lOut << "\n\n";

    auto lia = baselines::liaEngine(sys, m);
    const auto plan = lia.estimate(sc);

    std::cout << "Plan\n"
              << "  prefill policy : " << plan.prefillPolicy.toString()
              << " (streamed layers)\n"
              << "  decode  policy : " << plan.decodePolicy.toString()
              << "\n"
              << "  GPU-resident   : " << plan.residency.residentLayers
              << " of " << m.numLayers << " decoder layers ("
              << fmtBytes(plan.residency.gpuBytesUsed) << ")\n"
              << "  parameters in  : "
              << core::toString(plan.placement.paramTier) << "\n"
              << "  KV cache in    : "
              << core::toString(plan.placement.kvTier) << "\n"
              << "  feasible       : "
              << (plan.feasible ? "yes" : "NO - " + plan.note) << "\n\n";

    std::cout << "Prediction\n"
              << "  prefill        : " << fmtSeconds(plan.prefillTime)
              << "\n"
              << "  decode         : " << fmtSeconds(plan.decodeTime)
              << "\n"
              << "  end-to-end     : " << fmtSeconds(plan.latency())
              << " (" << fmtDouble(plan.throughput(sc), 1)
              << " tokens/s)\n"
              << "  PCIe traffic   : " << fmtBytes(plan.pcieBytes)
              << "\n\n";

    const auto ipex = baselines::ipexEngine(sys, m).estimate(sc);
    const auto flexgen =
        baselines::FlexGenModel(sys, m).estimate(sc);
    TextTable table({"framework", "latency", "tokens/s", "vs LIA"});
    table.addRow({"LIA", fmtSeconds(plan.latency()),
                  fmtDouble(plan.throughput(sc), 1), "1.00x"});
    table.addRow({"IPEX (CPU only)", fmtSeconds(ipex.latency()),
                  fmtDouble(ipex.throughput(sc), 1),
                  fmtRatio(ipex.latency() / plan.latency())});
    table.addRow({"FlexGen", fmtSeconds(flexgen.latency()),
                  fmtDouble(flexgen.throughput(sc), 1),
                  fmtRatio(flexgen.latency() / plan.latency())});
    table.print(std::cout);
    return 0;
}
