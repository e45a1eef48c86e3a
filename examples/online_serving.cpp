/**
 * @file
 * Online-serving scenario (§7.2's latency-driven workload).
 *
 * Draws a stream of requests from the Azure-statistics trace
 * generator, plans each request with LIA at B = 1 on the SPR-A100
 * platform, and reports the latency distribution against the IPEX
 * and FlexGen baselines — the situation of a user-facing assistant
 * where every query's response time matters.
 *
 * Also cross-checks the two serving models at B = 1: the legacy
 * M/G/1 queue (whole-request service times) against the new
 * continuous-batching engine capped at batch 1 (iteration-priced)
 * on the identical arrival sequence.
 *
 * Usage: online_serving [num_requests] [seed]
 *                       [--trace-out trace.json]
 *                       [--metrics-out metrics.prom]
 *
 * --trace-out records the B = 1 serving-engine cross-check run as a
 * Chrome-trace / Perfetto JSON timeline; --metrics-out writes that
 * run's Prometheus text exposition (DESIGN.md §13). Instrumentation
 * never changes the metrics (DESIGN.md §8).
 */

#include <cstdlib>
#include <iostream>

#include "base/args.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "baselines/presets.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "obs/chrome_trace.hh"
#include "serve/engine.hh"
#include "serve/metrics.hh"
#include "serve/prom.hh"
#include "sim/serving.hh"
#include "trace/azure.hh"

int
main(int argc, char **argv)
{
    using namespace lia;
    using core::Scenario;

    const ArgParser args(argc, argv,
                         "[num_requests] [seed] [--trace-out trace.json] "
                         "[--metrics-out metrics.prom]");
    const auto requests = static_cast<std::size_t>(
        args.positionalNumber<std::int64_t>(0, "num_requests", 40));
    const auto seed = static_cast<std::uint64_t>(
        args.positionalNumber<std::int64_t>(1, "seed", 7));
    const std::string trace_out = args.getString("trace-out");
    const std::string metrics_out = args.getString("metrics-out");

    const auto sys = hw::sprA100();
    const auto m = model::opt30b();

    std::cout << "Online serving: " << requests << " requests from "
              << "the code+conversation trace mix, " << m.name
              << " on " << sys.name << ", B=1\n\n";

    trace::AzureTraceGenerator gen(trace::TraceKind::Mixed,
                                   m.maxSeqLen, seed);

    auto lia = baselines::liaEngine(sys, m);
    auto ipex = baselines::ipexEngine(sys, m);
    baselines::FlexGenModel flexgen(sys, m);

    SampleStats lia_lat, ipex_lat, fg_lat;
    int cpu_policies = 0;
    for (std::size_t i = 0; i < requests; ++i) {
        const auto req = gen.next();
        const Scenario sc{1, req.lIn, req.lOut};
        const auto plan = lia.estimate(sc);
        lia_lat.add(plan.latency());
        ipex_lat.add(ipex.estimate(sc).latency());
        fg_lat.add(flexgen.estimate(sc).latency());
        cpu_policies +=
            plan.decodePolicy == core::Policy::fullCpu() ? 1 : 0;
    }

    TextTable table = serve::latencyTable("framework");
    serve::addLatencyRow(table, "LIA", lia_lat, lia_lat.mean());
    serve::addLatencyRow(table, "IPEX", ipex_lat, lia_lat.mean());
    serve::addLatencyRow(table, "FlexGen", fg_lat, lia_lat.mean());
    table.print(std::cout);

    std::cout << "\nLIA chose the full-CPU decode policy on "
              << cpu_policies << "/" << requests
              << " requests (B=1 sits left of the Fig. 9 decode "
                 "crossover);\nprefill moves to the GPU once "
                 "L_in crosses the compute-intensity boundary.\n";

    // --- Cross-check: M/G/1 queue vs serving engine at B = 1 --------
    //
    // Same seed => same Poisson arrival sequence and trace shapes.
    // The legacy queue serves whole requests (engine.estimate); the
    // serving engine prices prefill + per-token decode iterations.
    // At batch 1 the two must agree closely on the response-time
    // distribution.
    const double rate = 1.5 / 60.0;  // 1.5 arrivals/min

    sim::ServingConfig legacy_cfg;
    legacy_cfg.arrivalRatePerSecond = rate;
    legacy_cfg.requests = requests;
    legacy_cfg.trace = trace::TraceKind::Code;
    legacy_cfg.maxContext = m.maxSeqLen;
    legacy_cfg.seed = seed;
    const auto legacy = sim::simulateServing(
        legacy_cfg, [&lia](const trace::Request &r) {
            return lia.estimate(Scenario{1, r.lIn, r.lOut}).latency();
        });

    obs::ChromeTraceWriter trace;
    serve::Config serve_cfg;
    serve_cfg.arrivalRatePerSecond = rate;
    serve_cfg.requests = requests;
    serve_cfg.trace = trace::TraceKind::Code;
    serve_cfg.maxContext = m.maxSeqLen;
    serve_cfg.seed = seed;
    serve_cfg.policy = serve::SchedulerPolicy::Continuous;
    serve_cfg.maxBatch = 1;
    serve_cfg.cxlSpill = false;
    if (!trace_out.empty())
        serve_cfg.sink = &trace;
    serve::ServingEngine engine(sys, m, serve_cfg);
    const auto modern = engine.run();

    std::cout << "\nSanity cross-check at B=1, "
              << fmtDouble(rate * 60.0, 1)
              << " arrivals/min (identical arrival sequence):\n";
    TextTable check({"serving model", "util", "mean resp", "p50 resp",
                     "p95 resp"});
    check.addRow({"M/G/1 queue (legacy)",
                  fmtPercent(legacy.utilisation),
                  fmtSeconds(legacy.responseTime.mean()),
                  fmtSeconds(legacy.responseTime.p50()),
                  fmtSeconds(legacy.responseTime.p95())});
    check.addRow({"serve engine, maxBatch=1",
                  fmtPercent(modern.metrics.utilisation()),
                  fmtSeconds(modern.metrics.responseTime.mean()),
                  fmtSeconds(modern.metrics.responseTime.p50()),
                  fmtSeconds(modern.metrics.responseTime.p95())});
    check.print(std::cout);
    std::cout << "\nThe two agree to within the iteration-pricing "
                 "bucket granularity — the\ncontinuous-batching "
                 "engine degenerates to the M/G/1 queue at "
                 "batch 1.\n";

    if (!trace_out.empty()) {
        if (trace.writeFile(trace_out))
            std::cout << "\nWrote " << trace.events().size()
                      << "-event Chrome trace to " << trace_out
                      << " (open in ui.perfetto.dev)\n";
        else {
            std::cerr << "\nFailed to write trace to " << trace_out
                      << "\n";
            return EXIT_FAILURE;
        }
    }
    if (!metrics_out.empty()) {
        if (serve::writePrometheusFile(metrics_out, modern.metrics))
            std::cout << "Wrote Prometheus metrics to " << metrics_out
                      << "\n";
        else {
            std::cerr << "Failed to write metrics to " << metrics_out
                      << "\n";
            return EXIT_FAILURE;
        }
    }
    return EXIT_SUCCESS;
}
