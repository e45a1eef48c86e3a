/**
 * @file
 * Structured-event sink interface of the observability layer.
 *
 * Components that want to be traceable (the serving engine, the
 * scheduler, sim::TransferChannel) emit spans, instant events, and
 * counter samples against an abstract EventSink instead of any
 * concrete trace format. Emission is always guarded by a null check
 * at the call site, so an untraced run performs no work at all — not
 * even argument formatting — and is bit-identical to a build without
 * the hooks (the overhead policy of DESIGN.md §8).
 *
 * Times are seconds on whichever axis the emitter lives on: the
 * serving engine emits simulated seconds, wall-clock profilers real
 * seconds. A sink never interprets the axis, it only records it.
 *
 * Concrete sinks: obs::ChromeTraceWriter (chrome://tracing / Perfetto
 * JSON), obs::SeriesRegistry (counter time series) and obs::TeeSink
 * (fan-out). No sink at all (a null pointer) is the no-op.
 */

#ifndef LIA_OBS_SINK_HH
#define LIA_OBS_SINK_HH

#include <cstdint>
#include <string>
#include <vector>

namespace lia {
namespace obs {

/**
 * One timeline a sink can place events on, identified Chrome-trace
 * style: pid groups related tracks (a "process" lane in Perfetto),
 * tid separates the tracks inside the group.
 */
struct Track
{
    std::int32_t pid = 0;
    std::int32_t tid = 0;

    bool operator==(const Track &other) const
    {
        return pid == other.pid && tid == other.tid;
    }
    bool operator<(const Track &other) const
    {
        return pid != other.pid ? pid < other.pid : tid < other.tid;
    }
};

/**
 * One pre-rendered event argument: a key plus its value already
 * formatted as a JSON literal. Rendering at the call site keeps the
 * sink interface format-agnostic and the formatting deterministic
 * (see jsonNumber()).
 */
struct Arg
{
    std::string key;
    std::string json;  //!< rendered JSON value, quoting included
};

using Args = std::vector<Arg>;

/**
 * Deterministically format @p value as a JSON number literal.
 *
 * Shortest round-trip-ish rendering via "%.9g": stable across runs on
 * one platform (the golden-trace test byte-compares two runs), and
 * never locale-dependent. Non-finite values render as 0 — JSON has no
 * Inf/NaN literal.
 */
std::string jsonNumber(double value);

/** Escape @p text for inclusion inside a JSON string literal. */
std::string jsonEscape(const std::string &text);

/** Build an argument from a double (rendered via jsonNumber). */
Arg arg(std::string key, double value);

/** Build an argument from an integer. */
Arg arg(std::string key, std::int64_t value);

/** Build an argument from a string (quoted and escaped). */
Arg arg(std::string key, const std::string &value);
Arg arg(std::string key, const char *value);

/** Abstract receiver of spans, instants, and counter samples. */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    /**
     * Name @p track for the display layer: @p process labels the pid
     * group, @p thread the individual track. Idempotent per track;
     * call once before (or after) emitting onto the track.
     */
    virtual void setTrackName(Track track, const std::string &process,
                              const std::string &thread) = 0;

    /**
     * Open a span named @p name at @p seconds. Spans on one track may
     * nest but must close in LIFO order (Chrome-trace B/E semantics);
     * the schema test enforces balance and per-track monotonicity.
     */
    virtual void beginSpan(Track track, const char *name,
                           double seconds, Args args = {}) = 0;

    /** Close the innermost open span of @p track at @p seconds. */
    virtual void endSpan(Track track, double seconds) = 0;

    /** A zero-duration marker event. */
    virtual void instant(Track track, const char *name, double seconds,
                         Args args = {}) = 0;

    /** One sample of the counter @p name (a Perfetto counter track). */
    virtual void counter(Track track, const char *name, double seconds,
                         double value) = 0;
};

/** Fans every event out to a list of child sinks (none owned). */
class TeeSink final : public EventSink
{
  public:
    explicit TeeSink(std::vector<EventSink *> sinks);

    void setTrackName(Track track, const std::string &process,
                      const std::string &thread) override;
    void beginSpan(Track track, const char *name, double seconds,
                   Args args = {}) override;
    void endSpan(Track track, double seconds) override;
    void instant(Track track, const char *name, double seconds,
                 Args args = {}) override;
    void counter(Track track, const char *name, double seconds,
                 double value) override;

  private:
    std::vector<EventSink *> sinks_;
};

} // namespace obs
} // namespace lia

#endif // LIA_OBS_SINK_HH
