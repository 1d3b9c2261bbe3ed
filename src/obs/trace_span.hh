/**
 * @file
 * Scoped trace spans: `OBS_SPAN("rbf.grid_search")` times the
 * enclosing scope with steady_clock and feeds the duration into the
 * registry histogram `span.rbf.grid_search`. Under a sampled
 * `TraceRoot` (PPM_TRACE_SAMPLE; see trace_context.hh) the span also
 * lands in the process SpanBuffer, which `ppm_trace` turns into a
 * Chrome trace (load it at chrome://tracing or
 * https://ui.perfetto.dev).
 *
 * Cost: two steady_clock reads plus one sharded histogram observe per
 * span, and one relaxed atomic load while tracing is off. Spans never
 * touch an RNG stream and never feed back into computation
 * (zero-perturbation; see DESIGN.md "Observability").
 *
 * Building with -DPPM_OBS_DISABLE=ON (which defines PPM_OBS_DISABLED)
 * compiles every OBS_SPAN site out entirely — the micro-bench
 * BM_ObsSpanCompiledOut quantifies the difference.
 */

#ifndef PPM_OBS_TRACE_SPAN_HH
#define PPM_OBS_TRACE_SPAN_HH

#include <cstdint>
#include <string>

#include "obs/event_log.hh"
#include "obs/metrics.hh"
#include "obs/trace_context.hh"

namespace ppm::obs {

/**
 * One static span call site: owns the span name and the registry
 * histogram (`span.<name>`) it feeds. Constructed once per site via
 * a function-local static in the OBS_SPAN macro.
 */
class SpanSite
{
  public:
    explicit SpanSite(const char *name)
        : name_(name),
          hist_(Registry::instance().histogram(std::string("span.") +
                                               name))
    {
    }

    const char *name() const { return name_; }
    Histogram &histogram() { return hist_; }

  private:
    const char *name_;
    Histogram &hist_;
};

/**
 * RAII timer: observes the scope duration on destruction. When
 * distributed tracing is runtime-enabled (PPM_TRACE_SAMPLE) and the
 * thread's trace context is sampled, the span also joins the
 * distributed span tree: it allocates a span id, re-parents the
 * thread context for its dynamic extent, and records a SpanRecord at
 * destruction. With tracing off this adds exactly one relaxed atomic
 * load (tracingEnabled) to the span hot path.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(SpanSite &site)
        : site_(site), start_ns_(monotonicNs())
    {
        if (tracingEnabled()) {
            TraceContext &ctx = threadTraceContext();
            if (ctx.sampled()) {
                traced_ = true;
                parent_span_id_ = ctx.parent_span_id;
                span_id_ = nextSpanId();
                ctx.parent_span_id = span_id_;
            }
        }
    }

    ~ScopedSpan()
    {
        const std::uint64_t dur = monotonicNs() - start_ns_;
        site_.histogram().observe(dur);
        if (traced_) {
            TraceContext &ctx = threadTraceContext();
            ctx.parent_span_id = parent_span_id_;
            SpanRecord span;
            span.trace_hi = ctx.trace_hi;
            span.trace_lo = ctx.trace_lo;
            span.span_id = span_id_;
            span.parent_span_id = parent_span_id_;
            span.name = site_.name();
            span.start_unix_ns = start_ns_ + epochOffsetNs();
            span.dur_ns = dur;
            span.tid = threadSlot();
            SpanBuffer::instance().record(span);
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanSite &site_;
    std::uint64_t start_ns_;
    std::uint64_t span_id_ = 0;
    std::uint64_t parent_span_id_ = 0;
    bool traced_ = false;
};

} // namespace ppm::obs

#define PPM_OBS_CONCAT2(a, b) a##b
#define PPM_OBS_CONCAT(a, b) PPM_OBS_CONCAT2(a, b)

#ifndef PPM_OBS_DISABLED
/**
 * Time the enclosing scope into the `span.<name>` histogram (and the
 * SpanBuffer when sampled). @p name must be a string literal.
 */
#define OBS_SPAN(name)                                                 \
    static ppm::obs::SpanSite PPM_OBS_CONCAT(ppm_obs_site_,            \
                                             __LINE__){name};          \
    ppm::obs::ScopedSpan PPM_OBS_CONCAT(ppm_obs_span_, __LINE__)       \
    {                                                                  \
        PPM_OBS_CONCAT(ppm_obs_site_, __LINE__)                        \
    }
/** Bind a registry counter to a static local (cheap per-event add). */
#define OBS_STATIC_COUNTER(var, name)                                  \
    static ppm::obs::Counter &var =                                    \
        ppm::obs::Registry::instance().counter(name)
#define OBS_ADD(var, n) ((var).add(n))
/** Bind a registry gauge to a static local. */
#define OBS_STATIC_GAUGE(var, name)                                    \
    static ppm::obs::Gauge &var =                                      \
        ppm::obs::Registry::instance().gauge(name)
#define OBS_GAUGE_ADD(var, n) ((var).add(n))
#define OBS_GAUGE_SUB(var, n) ((var).sub(n))
#else
#define OBS_SPAN(name) ((void)0)
#define OBS_STATIC_COUNTER(var, name) ((void)0)
#define OBS_ADD(var, n) ((void)0)
#define OBS_STATIC_GAUGE(var, name) ((void)0)
#define OBS_GAUGE_ADD(var, n) ((void)0)
#define OBS_GAUGE_SUB(var, n) ((void)0)
#endif

#endif // PPM_OBS_TRACE_SPAN_HH
