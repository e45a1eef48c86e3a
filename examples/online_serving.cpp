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
 * Those per-request service times then price queueing in closed form:
 * an M/G/1 load sweep gives each framework's load and Pollaczek–
 * Khinchine mean wait per arrival rate, showing FlexGen saturating at
 * rates LIA absorbs. Finally the continuous-batching engine capped at
 * batch 1 (iteration-priced) serves a Poisson stream, and its measured
 * mean queue wait sits next to the P–K wait of its own service times.
 *
 * Usage: online_serving [num_requests] [seed]
 *                       [--trace-out trace.json]
 *                       [--metrics-out metrics.prom]
 *
 * --trace-out records the B = 1 serving-engine run as a
 * Chrome-trace / Perfetto JSON timeline; --metrics-out writes that
 * run's Prometheus text exposition (DESIGN.md §13). Instrumentation
 * never changes the metrics (DESIGN.md §8).
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <utility>

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

    // --- M/G/1 load sweep -------------------------------------------
    //
    // A B = 1 server with Poisson arrivals is an M/G/1 queue, so the
    // per-request service times above give each framework's load and
    // mean wait in closed form (Pollaczek–Khinchine).
    std::cout << "\nM/G/1 load sweep (B=1 FIFO, Pollaczek-Khinchine mean "
                 "wait from the\nservice times above):\n";
    TextTable sweep({"arrivals/min", "framework", "load", "mean wait",
                     "mean resp"});
    for (double per_minute : {0.25, 0.5, 1.0, 2.0}) {
        if (per_minute > 0.25)
            sweep.addSeparator();
        const double rate = per_minute / 60.0;
        for (const auto &[name, lat] :
             {std::pair{"LIA", &lia_lat}, std::pair{"IPEX", &ipex_lat},
              std::pair{"FlexGen", &fg_lat}}) {
            const double wait = pollaczekKhinchineWait(rate, *lat);
            const bool stable = std::isfinite(wait);
            sweep.addRow({fmtDouble(per_minute, 2), name,
                          fmtPercent(rate * lat->mean()),
                          stable ? fmtSeconds(wait) : "saturated",
                          stable ? fmtSeconds(wait + lat->mean()) : "-"});
        }
    }
    sweep.print(std::cout);
    std::cout << "\nShape to expect: FlexGen saturates at arrival rates "
                 "LIA absorbs comfortably —\nthe service-time advantage "
                 "becomes sustainable load.\n";

    // --- The serving engine at B = 1 against the formula ------------
    //
    // The engine prices prefill + per-token decode iterations; capped
    // at batch 1 it is a serial FIFO server, so its measured
    // mean queue wait should sit near the P–K wait of its own service
    // times (response - queue wait), up to sampling noise.
    const double rate = 1.5 / 60.0;  // 1.5 arrivals/min

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

    SampleStats service;
    for (const auto &r : modern.requests)
        if (r.state == serve::RequestState::Finished)
            service.add(r.responseTime() - r.queueWait());
    const double pk_wait = pollaczekKhinchineWait(rate, service);
    const bool pk_stable = std::isfinite(pk_wait);

    std::cout << "\nServing engine at B=1, " << fmtDouble(rate * 60.0, 1)
              << " arrivals/min, code trace:\n";
    TextTable check({"model", "load", "mean wait", "mean resp"});
    check.addRow({"engine, maxBatch=1 (measured)",
                  fmtPercent(modern.metrics.utilisation()),
                  fmtSeconds(modern.metrics.queueWait.mean()),
                  fmtSeconds(modern.metrics.responseTime.mean())});
    check.addRow({"M/G/1 P-K on its service times",
                  fmtPercent(rate * service.mean()),
                  pk_stable ? fmtSeconds(pk_wait) : "saturated",
                  pk_stable ? fmtSeconds(pk_wait + service.mean())
                            : "-"});
    check.print(std::cout);
    std::cout << "\nAt low load few requests queue at all, so the "
                 "measured mean is noisy;\nit settles on the P-K wait "
                 "as the run grows (try 500 requests).\n";

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
