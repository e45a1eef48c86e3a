/**
 * @file
 * Deployment capacity planning: "what batch size should I run?"
 *
 * Uses the CapacityPlanner to pick the throughput-optimal batch for a
 * workload shape on the CXL-equipped SPR-A100 platform — once without
 * a latency bound (offline analytics) and once with an interactive
 * SLO — and prints the explored candidate grid.
 *
 * Usage: capacity_planning [l_in] [l_out] [slo_seconds]
 */

#include <iostream>

#include "base/args.hh"
#include "base/table.hh"
#include "core/capacity_planner.hh"
#include "hw/system.hh"
#include "model/config.hh"

namespace {

void
printPlan(const char *label, const lia::core::PlannerResult &result)
{
    using namespace lia;
    std::cout << label << ": ";
    if (!result.feasible) {
        std::cout << "no feasible plan (" << result.note << ")\n";
        return;
    }
    std::cout << "B = " << result.best.batch << ", "
              << fmtDouble(result.best.throughput, 1) << " tokens/s, "
              << fmtSeconds(result.best.estimate.latency())
              << " per query"
              << (result.note.empty() ? "" : " [" + result.note + "]")
              << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lia;
    using core::CapacityPlanner;
    using core::PlannerRequest;

    const ArgParser args(argc, argv, "[l_in] [l_out] [slo_seconds]");
    PlannerRequest request;
    request.lIn = args.positionalNumber<std::int64_t>(0, "l_in", 256);
    request.lOut = args.positionalNumber<std::int64_t>(1, "l_out", 32);
    const double slo = args.positionalNumber(2, "slo_seconds", 30.0);

    const auto sys = hw::withCxl(hw::sprA100());
    const auto m = model::opt30b();
    CapacityPlanner planner(sys, m);

    std::cout << "Capacity planning: " << m.name << " on " << sys.name
              << ", L_in=" << request.lIn << ", L_out=" << request.lOut
              << "\n\n";

    const auto throughput_plan = planner.plan(request);
    printPlan("Throughput-driven (no SLO)", throughput_plan);

    PlannerRequest bounded = request;
    bounded.latencySlo = slo;
    const auto slo_plan = planner.plan(bounded);
    printPlan(("Latency-bounded (SLO " + fmtSeconds(slo) + ")").c_str(),
              slo_plan);

    std::cout << "\nExplored candidates\n";
    TextTable table({"B", "tokens/s", "latency", "params in",
                     "meets SLO"});
    for (const auto &candidate : slo_plan.candidates) {
        table.addRow(
            {std::to_string(candidate.batch),
             fmtDouble(candidate.throughput, 1),
             fmtSeconds(candidate.estimate.latency()),
             core::toString(candidate.estimate.placement.paramTier),
             candidate.meetsSlo ? "yes" : "no"});
    }
    table.print(std::cout);

    std::cout << "\nMax feasible batch on this machine: "
              << planner.maxFeasibleBatch(request)
              << " (CXL pool holds the parameters; DDR holds the "
                 "growing KV cache).\n";
    return 0;
}
