/**
 * @file
 * lia_cli — command-line front door to the library.
 *
 * Subcommands:
 *   plan     plan one deployment and compare against the baselines
 *   sweep    CSV of LIA latency/throughput over a batch grid
 *   policy   print the optimal policy for one operating point
 *   systems  list known systems and models
 *
 * Examples:
 *   lia_cli plan --system SPR-H100 --model OPT-66B --batch 1 \
 *       --lin 512 --lout 32
 *   lia_cli sweep --system SPR-A100+CXL --model OPT-30B --lout 32
 *   lia_cli policy --system GNR-A100 --model OPT-175B-int4 \
 *       --batch 900 --lin 256 --stage decode
 */

#include <iostream>

#include "base/args.hh"
#include "base/table.hh"
#include "baselines/presets.hh"
#include "core/optimizer.hh"
#include "hw/system.hh"
#include "model/config.hh"

namespace {

using namespace lia;
using core::Scenario;

int
cmdPlan(const ArgParser &args)
{
    const auto sys = hw::systemByName(
        args.getString("system", "SPR-A100"));
    const auto m =
        model::modelByName(args.getString("model", "OPT-30B"));
    const Scenario sc{args.getInt("batch", 1), args.getInt("lin", 512),
                      args.getInt("lout", 32)};
    if (const auto why = m.contextOverflow(sc.lIn + sc.lOut); !why.empty())
        args.usageError(why);

    const auto lia_est = baselines::liaEngine(sys, m).estimate(sc);
    const auto ipex_est = baselines::ipexEngine(sys, m).estimate(sc);
    const auto fg_est =
        baselines::FlexGenModel(sys, m).estimate(sc);

    std::cout << m.name << " on " << sys.name << " (B=" << sc.batch
              << ", L_in=" << sc.lIn << ", L_out=" << sc.lOut << ")\n"
              << "  prefill " << lia_est.prefillPolicy.toString()
              << ", decode " << lia_est.decodePolicy.toString() << ", "
              << lia_est.residency.residentLayers
              << " resident layers, params in "
              << core::toString(lia_est.placement.paramTier) << "\n\n";

    TextTable table({"framework", "latency", "tokens/s"});
    table.addRow({"LIA", fmtSeconds(lia_est.latency()),
                  fmtDouble(lia_est.throughput(sc), 1)});
    table.addRow({"IPEX", fmtSeconds(ipex_est.latency()),
                  fmtDouble(ipex_est.throughput(sc), 1)});
    table.addRow({"FlexGen", fmtSeconds(fg_est.latency()),
                  fmtDouble(fg_est.throughput(sc), 1)});
    table.print(std::cout);
    return 0;
}

int
cmdSweep(const ArgParser &args)
{
    const auto sys = hw::systemByName(
        args.getString("system", "SPR-A100"));
    const auto m =
        model::modelByName(args.getString("model", "OPT-30B"));
    const auto l_in = args.getInt("lin", 256);
    const auto l_out = args.getInt("lout", 32);
    if (const auto why = m.contextOverflow(l_in + l_out); !why.empty())
        args.usageError(why);

    auto engine = baselines::liaEngine(sys, m);
    std::cout << "batch,latency_s,tokens_per_s,prefill_policy,"
                 "decode_policy,feasible\n";
    for (std::int64_t b = 1; b <= args.getInt("max-batch", 1024);
         b *= 2) {
        const Scenario sc{b, l_in, l_out};
        const auto est = engine.estimate(sc);
        std::cout << b << ',' << est.latency() << ','
                  << est.throughput(sc) << ','
                  << est.prefillPolicy.toString() << ','
                  << est.decodePolicy.toString() << ','
                  << (est.feasible ? 1 : 0) << '\n';
    }
    return 0;
}

int
cmdPolicy(const ArgParser &args)
{
    const auto sys = hw::systemByName(
        args.getString("system", "SPR-A100"));
    const auto m =
        model::modelByName(args.getString("model", "OPT-175B"));
    const auto stage_name = args.getString("stage", "decode");
    const model::Stage stage = stage_name == "prefill"
                                   ? model::Stage::Prefill
                                   : model::Stage::Decode;
    model::Workload w{stage, args.getInt("batch", 1),
                      args.getInt("lin", 512)};
    if (const auto why = m.contextOverflow(w.contextLen); !why.empty())
        args.usageError(why);

    core::CostModel cm(sys, m, {});
    core::PolicyOptimizer opt(cm);
    const auto ranked = opt.rank(w);

    std::cout << "Optimal policy for " << m.name << " "
              << model::toString(stage) << " (B=" << w.batch
              << ", L=" << w.contextLen << ") on " << sys.name
              << ":\n\n";
    TextTable table({"rank", "policy", "serial layer time",
                     "overlapped"});
    for (std::size_t i = 0; i < 5 && i < ranked.size(); ++i) {
        table.addRow({std::to_string(i + 1),
                      ranked[i].policy.toString(),
                      fmtSeconds(ranked[i].timing.serialTime()),
                      fmtSeconds(ranked[i].timing.overlappedTime())});
    }
    table.print(std::cout);
    return 0;
}

int
cmdSystems()
{
    std::cout << "systems:";
    for (const auto &name : hw::knownSystemNames())
        std::cout << ' ' << name;
    std::cout << "\nmodels: ";
    for (const auto &name : model::knownModelNames())
        std::cout << ' ' << name;
    std::cout << "\n(models accept -int8 / -int4 suffixes)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const ArgParser args(argc, argv,
                         "{plan|sweep|policy|systems} [--system S] "
                         "[--model M] [--batch B] [--lin L] [--lout L] "
                         "[--stage prefill|decode]");
    if (args.positional().empty())
        args.usageError("missing command");
    const std::string &cmd = args.positional().front();
    if (cmd == "plan")
        return cmdPlan(args);
    if (cmd == "sweep")
        return cmdSweep(args);
    if (cmd == "policy")
        return cmdPolicy(args);
    if (cmd == "systems")
        return cmdSystems();
    args.usageError("unknown command \"" + cmd + "\"");
}
