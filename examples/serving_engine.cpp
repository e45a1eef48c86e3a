/**
 * @file
 * Continuous-batching serving engine walkthrough.
 *
 * Feeds one Poisson request stream (mixed code/conversation trace)
 * through the four scheduler policies of serve:: on the same
 * SPR-A100 + OPT-30B deployment and prints the serving metrics an
 * online endpoint is judged by — TTFT, time between tokens, response
 * time, queue depth, goodput — plus the effect of CXL spill on the
 * KV admission budget and of preemptive over-admission at a pinned
 * KV budget.
 *
 * Usage: serving_engine [requests] [arrivals_per_min] [seed]
 *                       [--trace-out trace.json]
 *                       [--series-out series.json]
 *                       [--metrics-out metrics.prom]
 *                       [--blame-out blame.json]
 *
 * --trace-out records the preemptive-policy run as a Chrome-trace /
 * Perfetto JSON timeline (open in ui.perfetto.dev); --series-out
 * additionally dumps the per-iteration counter time series;
 * --metrics-out writes that run's Prometheus text exposition (SLO
 * burn rates included); --blame-out writes its p99.9 blame report —
 * which lifecycle phase the tail requests spent their time in
 * (DESIGN.md §13). Instrumentation never changes the metrics
 * (DESIGN.md §8).
 */

#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "base/args.hh"
#include "base/table.hh"
#include "hw/system.hh"
#include "model/config.hh"
#include "obs/chrome_trace.hh"
#include "obs/series.hh"
#include "obs/timeline.hh"
#include "serve/engine.hh"
#include "serve/metrics.hh"
#include "serve/prom.hh"
#include "serve/slo_monitor.hh"

int
main(int argc, char **argv)
{
    using namespace lia;

    const ArgParser args(argc, argv,
                         "[requests] [arrivals_per_min] [seed] "
                         "[--trace-out trace.json] "
                         "[--series-out series.json] "
                         "[--metrics-out metrics.prom] "
                         "[--blame-out blame.json]");
    const auto requests = static_cast<std::size_t>(
        args.positionalNumber<std::int64_t>(0, "requests", 120));
    const double per_minute =
        args.positionalNumber(1, "arrivals_per_min", 30.0);
    const auto seed = static_cast<std::uint64_t>(
        args.positionalNumber<std::int64_t>(2, "seed", 1));
    const std::string trace_out = args.getString("trace-out");
    const std::string series_out = args.getString("series-out");
    const std::string metrics_out = args.getString("metrics-out");
    const std::string blame_out = args.getString("blame-out");

    const auto sys = hw::withCxl(hw::sprA100());
    const auto m = model::opt30b();

    serve::Config base;
    base.requests = requests;
    base.arrivalRatePerSecond = per_minute / 60.0;
    base.seed = seed;
    base.maxBatch = 64;
    base.slo.ttft = 20.0;
    base.slo.tbt = 0.5;

    std::cout << "Serving engine: " << m.name << " on " << sys.name
              << ", " << requests << " mixed-trace requests at "
              << fmtDouble(per_minute, 0) << "/min (seed " << seed
              << ")\n\n";

    // The preemptive run — the mechanically richest timeline — is the
    // one the observability sinks record when requested.
    obs::ChromeTraceWriter trace;
    obs::SeriesRegistry series;
    obs::TimelineRecorder recorder;
    obs::TeeSink traced({&trace, &series, &recorder});
    serve::SloMonitorConfig monitor_cfg;
    monitor_cfg.targets = base.slo;
    serve::SloMonitor monitor(monitor_cfg);
    const bool tracing = !trace_out.empty() || !series_out.empty() ||
                         !metrics_out.empty() || !blame_out.empty();
    serve::Metrics preempt_metrics;

    TextTable table({"policy", "completed", "shed", "util",
                     "p50 TTFT", "p95 TTFT", "p95 TBT", "tok/s",
                     "goodput/min"});
    std::vector<std::pair<std::string, SampleStats>> response_times;
    for (const auto policy : {serve::SchedulerPolicy::StaticFifo,
                              serve::SchedulerPolicy::Continuous,
                              serve::SchedulerPolicy::SloAware,
                              serve::SchedulerPolicy::Preemptive}) {
        serve::Config cfg = base;
        cfg.policy = policy;
        if (tracing && policy == serve::SchedulerPolicy::Preemptive) {
            cfg.sink = &traced;
            cfg.sloMonitor = &monitor;
        }
        serve::ServingEngine engine(sys, m, cfg);
        const auto result = engine.run();
        const auto &mx = result.metrics;
        if (policy == serve::SchedulerPolicy::Preemptive)
            preempt_metrics = mx;
        table.addRow(
            {serve::toString(policy), std::to_string(mx.completed),
             std::to_string(mx.rejected()),
             fmtPercent(mx.utilisation()),
             fmtSeconds(mx.ttft.p50()), fmtSeconds(mx.ttft.p95()),
             fmtSeconds(mx.tbt.p95()),
             fmtDouble(mx.tokensPerSecond(), 1),
             fmtDouble(result.goodputPerSecond(base.slo) * 60.0, 1)});
        response_times.emplace_back(serve::toString(policy),
                                    mx.responseTime);
    }
    table.print(std::cout);

    // Response-time distributions in the shared latency-table format,
    // static batching as the baseline.
    std::cout << "\nResponse time by policy:\n";
    TextTable latency = serve::latencyTable("policy");
    const double base_mean = response_times.front().second.empty()
                                 ? 0.0
                                 : response_times.front().second.mean();
    for (const auto &entry : response_times)
        serve::addLatencyRow(latency, entry.first, entry.second,
                             base_mean);
    latency.print(std::cout);

    bool write_failed = false;
    if (!trace_out.empty()) {
        if (trace.writeFile(trace_out))
            std::cout << "\nWrote " << trace.events().size()
                      << "-event Chrome trace to " << trace_out
                      << " (open in ui.perfetto.dev)\n";
        else {
            std::cerr << "\nFailed to write trace to " << trace_out
                      << "\n";
            write_failed = true;
        }
    }
    if (!series_out.empty()) {
        if (series.writeFile(series_out))
            std::cout << "Wrote counter series to " << series_out
                      << "\n";
        else {
            std::cerr << "Failed to write series to " << series_out
                      << "\n";
            write_failed = true;
        }
    }
    if (!metrics_out.empty()) {
        if (serve::writePrometheusFile(metrics_out, preempt_metrics,
                                       &monitor,
                                       preempt_metrics.makespan))
            std::cout << "Wrote Prometheus metrics to " << metrics_out
                      << "\n";
        else {
            std::cerr << "Failed to write metrics to " << metrics_out
                      << "\n";
            write_failed = true;
        }
    }
    if (!blame_out.empty()) {
        if (recorder.writeFile(blame_out))
            std::cout << "Wrote blame report ("
                      << recorder.finishedCount()
                      << " requests attributed) to " << blame_out
                      << "\n";
        else {
            std::cerr << "Failed to write blame report to "
                      << blame_out << "\n";
            write_failed = true;
        }
    }

    // The CXL pool's contribution to serving: parameters leave DDR,
    // the freed capacity becomes KV admission budget (Table 3's batch
    // increase, restated as admission capacity).
    serve::Config no_spill = base;
    no_spill.policy = serve::SchedulerPolicy::Continuous;
    no_spill.cxlSpill = false;
    serve::ServingEngine spill(sys, m, base),
        plain(sys, m, no_spill);
    const double with_cxl = spill.run().kvBudgetBytes;
    const double without = plain.run().kvBudgetBytes;
    std::cout << "\nKV admission budget: " << fmtBytes(without)
              << " (params in DDR) -> " << fmtBytes(with_cxl)
              << " (params spilled to CXL, "
              << fmtRatio(with_cxl / without) << " capacity)\n";

    // Preemption at a KV-constrained operating point: pin one small
    // DDR budget and compare full-horizon admission with optimistic
    // admission + chunked prefill, which packs by live footprint and
    // swaps or recomputes victims when decode growth overshoots.
    serve::Config tight = base;
    tight.trace = trace::TraceKind::Conversation;
    tight.kvBudgetCapBytes = 4e9;
    tight.maxBatch = 32;
    tight.slo = {};
    tight.policy = serve::SchedulerPolicy::Continuous;
    const auto full = serve::ServingEngine(sys, m, tight).run();
    tight.policy = serve::SchedulerPolicy::Preemptive;
    tight.prefillChunkTokens = 256;
    const auto preempt = serve::ServingEngine(sys, m, tight).run();
    std::cout << "\nAt a pinned " << fmtBytes(tight.kvBudgetCapBytes)
              << " KV budget (conversation trace):\n"
              << "  full-horizon admission : occupancy "
              << fmtDouble(full.metrics.batchOccupancy.mean(), 2)
              << ", preemptions " << full.metrics.preemptions << "\n"
              << "  preemptive admission   : occupancy "
              << fmtDouble(preempt.metrics.batchOccupancy.mean(), 2)
              << ", preemptions " << preempt.metrics.preemptions
              << " (" << preempt.metrics.swapOuts << " swapped to CXL, "
              << preempt.metrics.recomputes << " recomputed)\n";

    std::cout
        << "\nShape to expect: static batching wastes slots on "
           "short requests and blocks\njoiners for a whole cohort; "
           "continuous batching turns both into throughput.\nThe "
           "SLO-aware scheduler sheds what it cannot serve in time "
           "and keeps TTFT/TBT\npercentiles inside their targets. "
           "Preemptive over-admission packs the KV\nbudget by live "
           "footprint and raises occupancy further.\n";
    return write_failed ? EXIT_FAILURE : EXIT_SUCCESS;
}
