/**
 * @file
 * Tests for the structured-event sinks and the Chrome-trace exporter:
 * deterministic JSON rendering, writer output shape, schema validity
 * of a real serving run (span balance, per-track monotonicity), the
 * golden-trace byte-compare, and the null-sink identity (tracing
 * never changes a run's results).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "hw/system.hh"
#include "model/config.hh"
#include "obs/chrome_trace.hh"
#include "obs/series.hh"
#include "obs/sink.hh"
#include "serve/engine.hh"
#include "support/serving_checks.hh"

namespace {

using namespace lia;

TEST(JsonRenderTest, NumbersAreDeterministicAndFinite)
{
    EXPECT_EQ(obs::jsonNumber(0.0), "0");
    EXPECT_EQ(obs::jsonNumber(1.5), "1.5");
    EXPECT_EQ(obs::jsonNumber(-3.0), "-3");
    // JSON has no Inf/NaN literal; both degrade to 0.
    EXPECT_EQ(obs::jsonNumber(std::numeric_limits<double>::infinity()),
              "0");
    EXPECT_EQ(obs::jsonNumber(std::nan("")), "0");
    // Same value, same rendering — the byte-compare rests on this.
    EXPECT_EQ(obs::jsonNumber(0.1), obs::jsonNumber(0.1));
}

TEST(JsonRenderTest, EscapeHandlesSpecialCharacters)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(obs::jsonEscape(std::string("a\x01") + "b"),
              "a\\u0001b");
}

TEST(JsonRenderTest, RenderArgsBuildsObjectBody)
{
    EXPECT_EQ(obs::renderArgs({}), "");
    const obs::Args args = {obs::arg("n", std::int64_t{3}),
                            obs::arg("t", 1.5),
                            obs::arg("s", "x\"y")};
    EXPECT_EQ(obs::renderArgs(args),
              "\"n\":3,\"t\":1.5,\"s\":\"x\\\"y\"");
}

TEST(ChromeTraceWriterTest, RecordsEventsInEmissionOrder)
{
    obs::ChromeTraceWriter writer;
    const obs::Track track{1, 2};
    writer.setTrackName(track, "proc", "thread");
    writer.beginSpan(track, "work", 0.5, {obs::arg("k", 1.0)});
    writer.instant(track, "mark", 0.75);
    writer.counter(track, "gauge", 0.75, 42.0);
    writer.endSpan(track, 1.0);

    const auto &events = writer.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].phase, 'B');
    EXPECT_EQ(events[0].name, "work");
    EXPECT_EQ(events[1].phase, 'i');
    EXPECT_EQ(events[2].phase, 'C');
    EXPECT_EQ(events[3].phase, 'E');
    EXPECT_TRUE(events[3].name.empty());
    EXPECT_DOUBLE_EQ(events[3].seconds, 1.0);
}

TEST(ChromeTraceWriterTest, WriteEmitsMetadataAndMicroseconds)
{
    obs::ChromeTraceWriter writer;
    const obs::Track track{0, 3};
    writer.setTrackName(track, "engine", "lane");
    writer.beginSpan(track, "span", 0.001);
    writer.endSpan(track, 0.002);

    const std::string json = writer.toJson();
    EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"engine\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"lane\""), std::string::npos);
    // 0.001 s -> 1000.000 microseconds.
    EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
}

TEST(TeeSinkTest, FansOutToAllChildren)
{
    obs::ChromeTraceWriter a, b;
    obs::TeeSink tee({&a, &b});
    const obs::Track track{0, 0};
    tee.beginSpan(track, "x", 0.0);
    tee.endSpan(track, 1.0);
    tee.counter(track, "c", 1.0, 2.0);
    EXPECT_EQ(a.events().size(), 3u);
    EXPECT_EQ(b.events().size(), 3u);
}

// --- Serving-run schema and determinism ----------------------------

serve::Config
tracedConfig()
{
    // Preemptive policy under a tight KV budget: exercises admission,
    // chunked prefill, preemption (swap and recompute), and shedding,
    // so every event type the engine can emit appears in the trace.
    serve::Config cfg;
    cfg.arrivalRatePerSecond = 10.0 / 60.0;
    cfg.requests = 60;
    cfg.seed = 11;
    cfg.trace = trace::TraceKind::Conversation;
    cfg.policy = serve::SchedulerPolicy::Preemptive;
    cfg.maxBatch = 16;
    cfg.kvBudgetCapBytes = 4e9;
    cfg.prefillChunkTokens = 256;
    return cfg;
}

serve::Result
runTraced(const serve::Config &cfg)
{
    serve::ServingEngine engine(hw::withCxl(hw::sprA100()),
                                model::opt30b(), cfg);
    return engine.run();
}

TEST(ServingTraceTest, SchemaIsValid)
{
    obs::ChromeTraceWriter writer;
    serve::Config cfg = tracedConfig();
    cfg.sink = &writer;
    const auto result = runTraced(cfg);
    EXPECT_GT(result.metrics.completed, 0u);
    ASSERT_FALSE(writer.events().empty());

    // Span balance and per-track monotonicity: every E closes an open
    // B on its track, no track's event stream ever moves backwards in
    // time, and every span is closed by drain.
    std::map<obs::Track, int> depth;
    std::map<obs::Track, double> last;
    for (const auto &event : writer.events()) {
        auto t = last.find(event.track);
        if (t != last.end()) {
            EXPECT_GE(event.seconds, t->second)
                << "track (" << event.track.pid << ","
                << event.track.tid << ") went backwards at event '"
                << event.name << "'";
        }
        last[event.track] = event.seconds;
        if (event.phase == 'B') {
            ++depth[event.track];
        } else if (event.phase == 'E') {
            ASSERT_GT(depth[event.track], 0)
                << "E without matching B on track ("
                << event.track.pid << "," << event.track.tid << ")";
            --depth[event.track];
        }
    }
    for (const auto &[track, open] : depth) {
        EXPECT_EQ(open, 0) << "track (" << track.pid << ","
                           << track.tid << ") left a span open";
    }
}

TEST(ServingTraceTest, TraceCoversTheInterestingEvents)
{
    obs::ChromeTraceWriter writer;
    serve::Config cfg = tracedConfig();
    cfg.sink = &writer;
    const auto result = runTraced(cfg);

    std::map<std::string, std::size_t> names;
    for (const auto &event : writer.events())
        if (!event.name.empty())
            ++names[event.name];
    EXPECT_EQ(names["iteration"], result.metrics.iterations);
    EXPECT_EQ(names["arrive"], result.requests.size());
    EXPECT_EQ(names["finish"], result.metrics.completed);
    EXPECT_EQ(names["queue_depth"], result.metrics.iterations);
    if (result.metrics.preemptions > 0) {
        EXPECT_EQ(names["preempt.swap_out"] + names["preempt.evict"],
                  result.metrics.preemptions);
    }
    if (result.metrics.swapOuts > 0) {
        EXPECT_GT(names["transfer"], 0u);
    }
}

TEST(ServingTraceTest, GoldenTraceIsByteIdenticalAcrossRuns)
{
    obs::ChromeTraceWriter first, second;
    serve::Config cfg = tracedConfig();
    cfg.sink = &first;
    runTraced(cfg);
    cfg.sink = &second;
    runTraced(cfg);
    EXPECT_EQ(first.toJson(), second.toJson());
}

TEST(ServingTraceTest, TracingNeverChangesResults)
{
    obs::ChromeTraceWriter writer;
    obs::SeriesRegistry series;
    obs::TeeSink tee({&writer, &series});

    serve::Config untraced = tracedConfig();
    serve::Config traced = tracedConfig();
    traced.sink = &tee;
    const auto a = runTraced(untraced);
    const auto b = runTraced(traced);
    test::expectIdenticalRuns(a, b);
}

} // namespace
