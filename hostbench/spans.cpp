#include "spans.hpp"

#include "common/log.hpp"
#include "common/tracewriter.hpp"

namespace hostbench {

std::string
layerOf(const std::string &spanName)
{
    const std::string head = spanName.substr(0, spanName.find('.'));
    return head == "frontend" ? "plan.frontend" : head;
}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

void
SpanRecorder::begin(std::string name)
{
    Span s;
    s.name = std::move(name);
    s.track = track_;
    s.mode = mode_;
    s.parent = open_.empty() ? -1 : open_.back();
    open_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(std::move(s));
    // Read the clock last so the span excludes its own bookkeeping.
    spans_.back().startNs = nowNs();
}

void
SpanRecorder::end()
{
    const std::int64_t t = nowNs();
    TMU_ASSERT(!open_.empty(), "span end without begin");
    Span &s = spans_[static_cast<size_t>(open_.back())];
    open_.pop_back();
    s.endNs = t;
    if (s.parent >= 0)
        spans_[static_cast<size_t>(s.parent)].childNs += s.durNs();
}

void
SpanRecorder::clear()
{
    TMU_ASSERT(open_.empty(), "clear with open spans");
    spans_.clear();
}

double
spanSeconds(const std::vector<Span> &spans, const std::string &name)
{
    std::int64_t ns = 0;
    for (const Span &s : spans)
        ns += s.name == name ? s.durNs() : 0;
    return static_cast<double>(ns) * 1e-9;
}

double
spanSeconds(const std::vector<Span> &spans, const std::string &name,
            SpanMode mode)
{
    std::int64_t ns = 0;
    for (const Span &s : spans)
        ns += s.name == name && s.mode == mode ? s.durNs() : 0;
    return static_cast<double>(ns) * 1e-9;
}

std::uint64_t
spanCount(const std::vector<Span> &spans, const std::string &name)
{
    std::uint64_t n = 0;
    for (const Span &s : spans)
        n += s.name == name ? 1 : 0;
    return n;
}

std::map<std::string, double>
layerSelfSeconds(const std::vector<Span> &spans)
{
    std::map<std::string, double> self;
    for (const Span &s : spans)
        self[layerOf(s.name)] += static_cast<double>(s.selfNs()) * 1e-9;
    return self;
}

double
topLevelSeconds(const std::vector<Span> &spans)
{
    std::int64_t ns = 0;
    for (const Span &s : spans)
        ns += s.parent < 0 ? s.durNs() : 0;
    return static_cast<double>(ns) * 1e-9;
}

bool
saveSpanTrace(const std::string &path, const std::string &process,
              const std::vector<Span> &spans,
              const std::vector<std::string> &trackNames)
{
    tmu::stats::TraceWriter tw;
    tw.processName(1, process);
    for (std::size_t t = 0; t < trackNames.size(); ++t)
        tw.threadName(1, static_cast<int>(t), trackNames[t]);
    for (const Span &s : spans) {
        // Round both ends, not the duration, so nested spans stay
        // inside their parents on the microsecond axis.
        const auto start = static_cast<std::uint64_t>(s.startNs / 1000);
        const auto end = static_cast<std::uint64_t>(s.endNs / 1000);
        tw.complete(1, s.track, layerOf(s.name), s.name, start,
                    end - start);
    }
    return tw.save(path);
}

} // namespace hostbench
