#include "obs/trace_context.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

#include "obs/event_log.hh"
#include "obs/metrics.hh"

namespace ppm::obs {

namespace {

std::atomic<std::uint32_t> g_sample_every{0};
std::atomic<std::uint64_t> g_root_counter{0};
std::atomic<std::uint64_t> g_span_counter{0};

thread_local TraceContext t_context;

std::uint64_t
pidSalt()
{
    static const std::uint64_t salt =
        static_cast<std::uint64_t>(::getpid());
    return salt;
}

/**
 * Register the PPM_SPANS_OUT atexit dump once per process. Separate
 * from configuration so repeated traceConfigureFromEnv() calls (tests
 * toggling tracing) never stack registrations.
 */
void
registerSpansOutAtExit()
{
    static const bool registered = [] {
        std::atexit([] {
            const char *path = std::getenv("PPM_SPANS_OUT");
            if (path != nullptr && path[0] != '\0')
                SpanBuffer::instance().writeJsonl(path);
        });
        return true;
    }();
    (void)registered;
}

/** Load-time env read: every binary linking obs (servers, tools,
 * tests, benches) honours PPM_TRACE_SAMPLE / PPM_SPANS_OUT without an
 * explicit init call. Touches only this TU's atomics, so static
 * initialization order cannot bite. */
const bool g_env_configured = [] {
    traceConfigureFromEnv();
    return true;
}();

} // namespace

bool
tracingEnabled()
{
    return g_sample_every.load(std::memory_order_relaxed) != 0;
}

std::uint32_t
traceSampleEvery()
{
    return g_sample_every.load(std::memory_order_relaxed);
}

void
setTraceSampleEvery(std::uint32_t every)
{
    g_sample_every.store(every, std::memory_order_relaxed);
}

void
traceConfigureFromEnv()
{
    const char *every = std::getenv("PPM_TRACE_SAMPLE");
    setTraceSampleEvery(every == nullptr
                            ? 0
                            : static_cast<std::uint32_t>(
                                  std::strtoul(every, nullptr, 10)));
    const char *spans_out = std::getenv("PPM_SPANS_OUT");
    if (spans_out != nullptr && spans_out[0] != '\0')
        registerSpansOutAtExit();
}

TraceContext &
threadTraceContext()
{
    return t_context;
}

TraceContext
currentTraceContext()
{
    return t_context;
}

std::uint64_t
nextSpanId()
{
    // pid in the top bits keeps ids unique across the processes that
    // contribute to one merged trace; +1 keeps 0 meaning "no parent".
    const std::uint64_t n =
        g_span_counter.fetch_add(1, std::memory_order_relaxed) + 1;
    return (pidSalt() << 40) ^ n;
}

std::uint64_t
epochOffsetNs()
{
    // One capture per process: realtime minus the steady clock that
    // monotonicNs() counts from, so start_unix_ns from different
    // processes land on one comparable axis.
    static const std::uint64_t offset = [] {
        const auto wall = std::chrono::system_clock::now();
        const std::uint64_t wall_ns =
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    wall.time_since_epoch())
                    .count());
        return wall_ns - monotonicNs();
    }();
    return offset;
}

ScopedTraceContext::ScopedTraceContext(const TraceContext &ctx)
{
    if (!ctx.valid())
        return;
    saved_ = t_context;
    t_context = ctx;
    installed_ = true;
}

ScopedTraceContext::~ScopedTraceContext()
{
    if (installed_)
        t_context = saved_;
}

TraceRoot::TraceRoot(const char *name) : name_(name)
{
    const std::uint32_t every =
        g_sample_every.load(std::memory_order_relaxed);
    if (every == 0)
        return;
    saved_ = t_context;
    installed_ = true;
    if (!t_context.valid()) {
        // Deterministic 1-in-N: a relaxed counter, never an RNG.
        const std::uint64_t n =
            g_root_counter.fetch_add(1, std::memory_order_relaxed);
        TraceContext fresh;
        fresh.trace_hi =
            (pidSalt() << 32) ^ (epochOffsetNs() & 0xffffffffu);
        fresh.trace_lo = n + 1;
        fresh.flags = (n % every == 0) ? kTraceFlagSampled : 0;
        t_context = fresh;
    }
    if (t_context.sampled()) {
        traced_ = true;
        span_id_ = nextSpanId();
        start_ns_ = monotonicNs();
        t_context.parent_span_id = span_id_;
    }
}

TraceRoot::~TraceRoot()
{
    if (traced_) {
        SpanRecord span;
        span.trace_hi = t_context.trace_hi;
        span.trace_lo = t_context.trace_lo;
        span.span_id = span_id_;
        span.parent_span_id = saved_.parent_span_id;
        span.name = name_;
        span.start_unix_ns = start_ns_ + epochOffsetNs();
        span.dur_ns = monotonicNs() - start_ns_;
        span.tid = threadSlot();
        SpanBuffer::instance().record(span);
    }
    if (installed_)
        t_context = saved_;
}

TraceContext
TraceRoot::context() const
{
    return t_context;
}

SpanBuffer &
SpanBuffer::instance()
{
    static SpanBuffer *buffer = new SpanBuffer;
    return *buffer;
}

void
SpanBuffer::record(const SpanRecord &span)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (spans_.size() < kMaxSpans) {
            spans_.push_back(span);
            return;
        }
    }
    dropped_.fetch_add(1, std::memory_order_relaxed);
    static Counter &dropped_counter =
        Registry::instance().counter("obs.spans.dropped");
    dropped_counter.add(1);
}

std::vector<SpanRecord>
SpanBuffer::snapshot(bool drain)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!drain)
        return spans_;
    std::vector<SpanRecord> out;
    out.swap(spans_);
    return out;
}

void
SpanBuffer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    dropped_.store(0, std::memory_order_relaxed);
}

bool
SpanBuffer::writeJsonl(const std::string &path)
{
    const std::vector<SpanRecord> spans = snapshot();
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const unsigned long pid =
        static_cast<unsigned long>(::getpid());
    for (const SpanRecord &s : spans) {
        std::fprintf(
            out,
            "{\"trace\":\"%s\",\"span\":\"%016llx\","
            "\"parent\":\"%016llx\",\"name\":\"%s\","
            "\"ts_ns\":%llu,\"dur_ns\":%llu,"
            "\"pid\":%lu,\"tid\":%u}\n",
            traceIdHex(s.trace_hi, s.trace_lo).c_str(),
            static_cast<unsigned long long>(s.span_id),
            static_cast<unsigned long long>(s.parent_span_id),
            s.name,
            static_cast<unsigned long long>(s.start_unix_ns),
            static_cast<unsigned long long>(s.dur_ns), pid, s.tid);
    }
    std::fprintf(out, "{\"pid\":%lu,\"dropped_spans\":%llu}\n", pid,
                 static_cast<unsigned long long>(droppedCount()));
    std::fclose(out);
    return true;
}

std::string
traceIdHex(std::uint64_t hi, std::uint64_t lo)
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return std::string(buf);
}

} // namespace ppm::obs
