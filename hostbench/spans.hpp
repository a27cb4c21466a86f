/**
 * @file
 * Host-time spans for the traced benchmark run.
 *
 * The benchmark records a span around each call it makes into a layer
 * of the simulator ("tensor.generate", "sim.run", ...). Spans nest on
 * a stack: a span's self time is its duration minus the durations of
 * the spans opened directly inside it, so the self times of all spans
 * add up exactly to the durations of the top-level spans.
 *
 * Span names are "<layer>.<call>"; layerOf() maps a name to the module
 * it measures. Spans stay in memory and are written out at the end.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Mode tag of a span: the simulation mode it ran under, if any. */
enum class SpanMode : std::int8_t { None = -1, Baseline = 0, Tmu = 1 };

/** One recorded span. */
struct Span
{
    std::string name;
    int track = 0;  //!< timeline track: one per (workload, input) cell
    SpanMode mode = SpanMode::None;
    int parent = -1; //!< index of the enclosing span; -1 = top level
    std::int64_t startNs = 0; //!< relative to the recorder's origin
    std::int64_t endNs = 0;
    std::int64_t childNs = 0; //!< summed durations of direct children

    std::int64_t durNs() const { return endNs - startNs; }
    std::int64_t selfNs() const { return durNs() - childNs; }
};

/** Module a span name belongs to ("frontend.*" is plan.frontend). */
std::string layerOf(const std::string &spanName);

/** Stack-based span recorder for one single-threaded run. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

    /** Track and mode that spans opened from now on carry. */
    void
    setContext(int track, SpanMode mode)
    {
        track_ = track;
        mode_ = mode;
    }

    void setMode(SpanMode mode) { mode_ = mode; }

    /** Open a span nested in the innermost open one. */
    void begin(std::string name);

    /** Close the innermost open span. */
    void end();

    /** Run @p fn inside a span named @p name; returns fn's result. */
    template <typename Fn>
    auto
    time(const char *name, Fn &&fn) -> decltype(fn())
    {
        begin(name);
        struct Closer
        {
            SpanRecorder *r;
            ~Closer() { r->end(); }
        } closer{this};
        return fn();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Drop the recorded spans (no span may be open). */
    void clear();

  private:
    std::int64_t nowNs() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    int track_ = 0;
    SpanMode mode_ = SpanMode::None;
};

/** Total duration of the spans named @p name (optionally one mode). */
double spanSeconds(const std::vector<Span> &spans, const std::string &name);
double spanSeconds(const std::vector<Span> &spans, const std::string &name,
                   SpanMode mode);

/** Number of spans named @p name. */
std::uint64_t spanCount(const std::vector<Span> &spans,
                        const std::string &name);

/** Summed self time per layer, in seconds. */
std::map<std::string, double> layerSelfSeconds(
    const std::vector<Span> &spans);

/** Summed duration of the top-level spans, in seconds. */
double topLevelSeconds(const std::vector<Span> &spans);

/**
 * Write @p spans as Chrome trace_event complete events (Perfetto) via
 * stats::TraceWriter: process 1, one thread per track named by
 * @p trackNames, microsecond timestamps.
 */
bool saveSpanTrace(const std::string &path, const std::string &process,
                   const std::vector<Span> &spans,
                   const std::vector<std::string> &trackNames);

} // namespace hostbench
