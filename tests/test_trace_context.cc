/**
 * @file
 * Distributed trace-context unit suite: deterministic 1-in-N root
 * sampling, span parenting through nested ScopedSpans and the thread
 * pool, SpanBuffer overflow accounting, and the frame trace block
 * (round trip + propagation into encoded frames).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/metrics.hh"
#include "obs/trace_context.hh"
#include "obs/trace_span.hh"
#include "serve/protocol.hh"
#include "util/thread_pool.hh"

namespace {

using namespace ppm;

/** RAII: enable tracing for one test, restore "off" after. */
struct TracingOn
{
    explicit TracingOn(std::uint32_t every)
    {
        obs::SpanBuffer::instance().clear();
        obs::setTraceSampleEvery(every);
    }
    ~TracingOn()
    {
        obs::setTraceSampleEvery(0);
        obs::SpanBuffer::instance().clear();
        obs::threadTraceContext() = obs::TraceContext{};
    }
};

TEST(TraceContext, DisabledRootInstallsNothing)
{
    obs::setTraceSampleEvery(0);
    obs::TraceRoot root("test.root");
    EXPECT_FALSE(root.context().valid());
    EXPECT_FALSE(obs::tracingEnabled());
}

TEST(TraceContext, EveryRootSampledAtPeriodOne)
{
    TracingOn tracing(1);
    for (int i = 0; i < 5; ++i) {
        obs::TraceRoot root("test.root");
        EXPECT_TRUE(root.context().sampled());
        EXPECT_NE(root.context().parent_span_id, 0u);
    }
    // Each root is a distinct trace...
    const auto spans = obs::SpanBuffer::instance().snapshot();
    ASSERT_EQ(spans.size(), 5u);
    for (std::size_t i = 1; i < spans.size(); ++i)
        EXPECT_NE(spans[i].trace_lo, spans[0].trace_lo);
    // ...and root spans have no parent.
    for (const auto &s : spans)
        EXPECT_EQ(s.parent_span_id, 0u);
}

TEST(TraceContext, OneInNSamplingIsPeriodic)
{
    // The root counter is process-global (never reset), so assert the
    // period property over a window rather than absolute positions:
    // any 3k consecutive roots contain exactly k sampled ones, and
    // the sampled positions are congruent mod 3.
    TracingOn tracing(3);
    std::vector<int> sampled_at;
    constexpr int kRoots = 12;
    for (int i = 0; i < kRoots; ++i) {
        obs::TraceRoot root("test.root");
        if (root.context().sampled())
            sampled_at.push_back(i);
    }
    ASSERT_EQ(sampled_at.size(), kRoots / 3);
    for (std::size_t i = 1; i < sampled_at.size(); ++i)
        EXPECT_EQ(sampled_at[i] - sampled_at[i - 1], 3);
}

TEST(TraceContext, NestedSpansFormAParentChain)
{
    TracingOn tracing(1);
    {
        obs::TraceRoot root("test.root");
        ASSERT_TRUE(root.context().sampled());
        OBS_SPAN("test.outer");
        {
            OBS_SPAN("test.inner");
        }
    }
    const auto spans = obs::SpanBuffer::instance().snapshot();
    ASSERT_EQ(spans.size(), 3u); // inner, outer, root (closing order)
    const auto &inner = spans[0];
    const auto &outer = spans[1];
    const auto &root = spans[2];
    EXPECT_STREQ(inner.name, "test.inner");
    EXPECT_STREQ(outer.name, "test.outer");
    EXPECT_STREQ(root.name, "test.root");
    EXPECT_EQ(inner.parent_span_id, outer.span_id);
    EXPECT_EQ(outer.parent_span_id, root.span_id);
    EXPECT_EQ(root.parent_span_id, 0u);
    // One trace id across the tree.
    EXPECT_EQ(inner.trace_hi, root.trace_hi);
    EXPECT_EQ(inner.trace_lo, root.trace_lo);
    EXPECT_EQ(outer.trace_lo, root.trace_lo);
}

TEST(TraceContext, ScopedContextInstallsAndRestores)
{
    TracingOn tracing(1);
    obs::TraceContext wire;
    wire.trace_hi = 0xabcd;
    wire.trace_lo = 0x1234;
    wire.parent_span_id = 77;
    wire.flags = obs::kTraceFlagSampled;
    {
        obs::ScopedTraceContext scope(wire);
        EXPECT_EQ(obs::currentTraceContext().trace_hi, 0xabcdu);
        OBS_SPAN("test.under_wire_context");
    }
    EXPECT_FALSE(obs::currentTraceContext().valid());
    const auto spans = obs::SpanBuffer::instance().snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].trace_hi, 0xabcdu);
    EXPECT_EQ(spans[0].trace_lo, 0x1234u);
    EXPECT_EQ(spans[0].parent_span_id, 77u);
    // An invalid context is a no-op install.
    obs::ScopedTraceContext noop(obs::TraceContext{});
    EXPECT_FALSE(obs::currentTraceContext().valid());
}

TEST(TraceContext, ThreadPoolTasksInheritTheSubmittersTrace)
{
    TracingOn tracing(1);
    obs::TraceRoot root("test.root");
    ASSERT_TRUE(root.context().sampled());
    const std::uint64_t want_lo = root.context().trace_lo;
    std::vector<std::uint64_t> seen(16, 0);
    util::parallelFor(seen.size(), [&](std::size_t i) {
        seen[i] = obs::currentTraceContext().trace_lo;
    });
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], want_lo) << "task " << i;
}

TEST(TraceContext, SpanBufferOverflowCountsDrops)
{
    TracingOn tracing(1);
    obs::SpanBuffer &buffer = obs::SpanBuffer::instance();
    const std::uint64_t before_counter =
        obs::Registry::instance().counter("obs.spans.dropped").value();
    obs::SpanRecord span;
    span.trace_hi = 1;
    span.name = "test.flood";
    for (std::size_t i = 0;
         i < obs::SpanBuffer::kMaxSpans + 10; ++i)
        buffer.record(span);
    EXPECT_EQ(buffer.snapshot().size(), obs::SpanBuffer::kMaxSpans);
    EXPECT_EQ(buffer.droppedCount(), 10u);
    EXPECT_EQ(obs::Registry::instance()
                      .counter("obs.spans.dropped")
                      .value() -
                  before_counter,
              10u);
    // clear() resets the drop accounting too.
    buffer.clear();
    EXPECT_EQ(buffer.droppedCount(), 0u);
}

TEST(TraceContext, JsonlDumpRoundTripsSpanFields)
{
    TracingOn tracing(1);
    {
        obs::TraceRoot root("test.jsonl");
        ASSERT_TRUE(root.context().sampled());
    }
    const std::string path =
        "/tmp/ppm_spans_" + std::to_string(::getpid()) + ".jsonl";
    ASSERT_TRUE(obs::SpanBuffer::instance().writeJsonl(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[512] = {};
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    std::fclose(f);
    ::unlink(path.c_str());
    const std::string text(line);
    EXPECT_NE(text.find("\"name\":\"test.jsonl\""), std::string::npos);
    EXPECT_NE(text.find("\"trace\":\""), std::string::npos);
    EXPECT_NE(text.find("\"pid\":"), std::string::npos);
}

// --- frame trace block -----------------------------------------------

TEST(TraceWire, FrameCarriesTheThreadContext)
{
    TracingOn tracing(1);
    obs::TraceContext ctx;
    ctx.trace_hi = 0x1111222233334444ull;
    ctx.trace_lo = 0x5555666677778888ull;
    ctx.parent_span_id = 0x9999aaaabbbbccccull;
    ctx.flags = obs::kTraceFlagSampled;
    obs::ScopedTraceContext scope(ctx);

    const auto bytes = serve::encodePing(7);
    const serve::Frame frame = serve::decodeFrame(bytes);
    EXPECT_EQ(bytes.size(), serve::kHeaderSize + serve::kTraceBlockSize +
                                8 + serve::kTrailerSize);
    EXPECT_EQ(frame.trace.trace_hi, ctx.trace_hi);
    EXPECT_EQ(frame.trace.trace_lo, ctx.trace_lo);
    EXPECT_EQ(frame.trace.parent_span_id, ctx.parent_span_id);
    EXPECT_TRUE(frame.trace.sampled());
}

TEST(TraceWire, UntracedFrameCarriesAZeroContext)
{
    obs::setTraceSampleEvery(0);
    const auto bytes = serve::encodePing(7);
    const serve::Frame frame = serve::decodeFrame(bytes);
    EXPECT_FALSE(frame.trace.valid());
    // The block is sent all-zero, never omitted.
    EXPECT_EQ(bytes.size(), serve::kHeaderSize + serve::kTraceBlockSize +
                                8 + serve::kTrailerSize);
}

TEST(TraceWire, TraceRequestAndResponseRoundTrip)
{
    serve::TraceRequest req;
    req.nonce = 42;
    req.drain = true;
    const serve::Frame req_frame =
        serve::decodeFrame(serve::encodeTraceRequest(req));
    ASSERT_EQ(req_frame.type, serve::MsgType::TraceRequest);
    const serve::TraceRequest parsed_req =
        serve::parseTraceRequest(req_frame.payload);
    EXPECT_EQ(parsed_req.nonce, 42u);
    EXPECT_TRUE(parsed_req.drain);

    serve::TraceDump dump;
    dump.pid = 1234;
    dump.dropped = 5;
    dump.endpoint = "127.0.0.1:7070";
    serve::TraceSpan span;
    span.trace_hi = 7;
    span.trace_lo = 8;
    span.span_id = 9;
    span.parent_span_id = 10;
    span.name = "serve.request";
    span.start_unix_ns = 1'700'000'000'000'000'000ull;
    span.dur_ns = 1500;
    span.tid = 3;
    dump.spans.push_back(span);
    const serve::Frame resp_frame =
        serve::decodeFrame(serve::encodeTraceResponse(dump));
    ASSERT_EQ(resp_frame.type, serve::MsgType::TraceResponse);
    const serve::TraceDump parsed =
        serve::parseTraceResponse(resp_frame.payload);
    EXPECT_EQ(parsed.pid, 1234u);
    EXPECT_EQ(parsed.dropped, 5u);
    EXPECT_EQ(parsed.endpoint, "127.0.0.1:7070");
    ASSERT_EQ(parsed.spans.size(), 1u);
    EXPECT_EQ(parsed.spans[0].name, "serve.request");
    EXPECT_EQ(parsed.spans[0].start_unix_ns, span.start_unix_ns);
    EXPECT_EQ(parsed.spans[0].tid, 3u);
}

} // namespace
