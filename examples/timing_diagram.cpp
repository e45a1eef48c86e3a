/**
 * @file
 * Reproduces the spirit of the paper's Fig. 7: an ASCII timing
 * diagram of a few decoder layers executing under LIA's overlapped
 * back-end. Each row is a hardware resource (host-to-device PCIe,
 * device-to-host PCIe, CPU, GPU); each glyph is a time slice, marked
 * with the decoder-layer index it serves. Parameter prefetch for
 * layer L+1 visibly streams while layer L computes.
 *
 * Usage: timing_diagram [layers] [batch] [context]
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "base/args.hh"
#include "base/table.hh"
#include "core/optimizer.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "sim/pipeline.hh"

int
main(int argc, char **argv)
{
    using namespace lia;

    const ArgParser args(argc, argv, "[layers] [batch] [context]");
    const std::int64_t layers =
        args.positionalNumber<std::int64_t>(0, "layers", 6);
    const std::int64_t batch =
        args.positionalNumber<std::int64_t>(1, "batch", 900);
    const std::int64_t context =
        args.positionalNumber<std::int64_t>(2, "context", 128);

    const auto sys = hw::sprA100();
    auto m = model::opt30b();
    m.numLayers = layers;  // a short excerpt keeps the diagram legible

    core::CostModel cm(sys, m, {});
    core::PolicyOptimizer opt(cm);
    model::Workload w{model::Stage::Decode, batch, context};
    const auto choice = opt.optimize(w);

    const auto result = sim::simulateStage(
        cm, w, choice.policy, choice.policy, 0, true);

    std::cout << "Fig.-7-style timing diagram: " << layers
              << " decoder layers of " << m.name << " decode, B="
              << batch << ", L=" << context << ", policy "
              << choice.policy.toString() << " on " << sys.name
              << "\n\n";

    constexpr int kWidth = 100;
    const double scale = result.makespan / kWidth;
    const std::vector<std::string> rows{"pcie-h2d", "pcie-d2h", "cpu",
                                        "gpu"};
    std::map<std::string, std::string> lanes;
    for (const auto &row : rows)
        lanes[row] = std::string(kWidth, '.');

    for (const auto &span : result.spans) {
        if (span.resource.empty() || span.finish <= span.start)
            continue;
        // Task names are "<kind> L<layer>[.<sublayer>]".
        const auto l_pos = span.name.find('L');
        const char glyph =
            "0123456789abcdef"[std::strtol(
                                   span.name.c_str() + l_pos + 1,
                                   nullptr, 10) %
                               16];
        auto &lane = lanes[span.resource];
        const int from = std::clamp(
            static_cast<int>(span.start / scale), 0, kWidth - 1);
        const int to = std::clamp(
            static_cast<int>(span.finish / scale), from, kWidth - 1);
        for (int i = from; i <= to; ++i)
            lane[static_cast<std::size_t>(i)] = glyph;
    }

    for (const auto &row : rows)
        std::cout << (row + std::string(10 - row.size(), ' ')) << '|'
                  << lanes[row] << "|\n";

    std::cout << "\nmakespan " << fmtSeconds(result.makespan)
              << "; glyphs are decoder-layer indices (hex). Note the "
                 "h2d lane\nprefetching layer L+1's parameters while "
                 "layer L computes, and the d2h\nlane carrying KV "
                 "store-backs and CPU-bound activation hops.\n";
    return 0;
}
