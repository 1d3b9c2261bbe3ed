/**
 * @file
 * Distributed trace-context unit suite: deterministic 1-in-N root
 * sampling, span parenting through nested ScopedSpans and the thread
 * pool, SpanBuffer overflow accounting, the offline roots (a sampled
 * model build or trainer step exports every span it fires as one
 * trace), and the frame trace block (round trip + propagation into
 * encoded frames).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/model_builder.hh"
#include "core/oracle.hh"
#include "dspace/paper_space.hh"
#include "math/rng.hh"
#include "obs/metrics.hh"
#include "obs/trace_context.hh"
#include "obs/trace_span.hh"
#include "serve/protocol.hh"
#include "serve/result_archive.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"
#include "train/online_trainer.hh"
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

TEST(TraceContext, UnsetOrEmptySampleVariableTurnsTracingOff)
{
    ::setenv("PPM_TRACE_SAMPLE", "4", 1);
    obs::traceConfigureFromEnv();
    EXPECT_EQ(obs::traceSampleEvery(), 4u);
    ::unsetenv("PPM_TRACE_SAMPLE");
    obs::traceConfigureFromEnv();
    EXPECT_FALSE(obs::tracingEnabled());

    ::setenv("PPM_TRACE_SAMPLE", "4", 1);
    obs::traceConfigureFromEnv();
    ::setenv("PPM_TRACE_SAMPLE", "", 1);
    obs::traceConfigureFromEnv();
    EXPECT_FALSE(obs::tracingEnabled());
    ::unsetenv("PPM_TRACE_SAMPLE");
}

// --- offline roots ---------------------------------------------------

/**
 * The sampled buffer holds one whole trace: exactly one @p root span
 * (no parent), every other span in its trace with its parent in the
 * buffer, spans from two or more threads, and per name exactly as many
 * spans as the `span.<name>` histogram observed since @p before — so
 * every span that fired was exported.
 */
void
expectOneWholeTrace(const char *root, const obs::Snapshot &before)
{
    const auto spans = obs::SpanBuffer::instance().snapshot();
    EXPECT_EQ(obs::SpanBuffer::instance().droppedCount(), 0u);
    std::set<std::uint64_t> ids;
    std::set<std::uint32_t> tids;
    std::map<std::string, std::uint64_t> exported;
    const obs::SpanRecord *root_span = nullptr;
    for (const obs::SpanRecord &s : spans) {
        ids.insert(s.span_id);
        tids.insert(s.tid);
        if (std::strcmp(s.name, root) != 0) {
            ++exported[s.name];
            continue;
        }
        EXPECT_EQ(root_span, nullptr) << "second " << root << " span";
        root_span = &s;
    }
    ASSERT_NE(root_span, nullptr) << "no " << root << " span";
    EXPECT_EQ(root_span->parent_span_id, 0u);
    for (const obs::SpanRecord &s : spans) {
        EXPECT_EQ(s.trace_hi, root_span->trace_hi) << s.name;
        EXPECT_EQ(s.trace_lo, root_span->trace_lo) << s.name;
        if (&s != root_span) {
            EXPECT_TRUE(ids.count(s.parent_span_id))
                << s.name << " has no parent in the buffer";
        }
    }
    EXPECT_GE(tids.size(), 2u);

    std::map<std::string, std::uint64_t> fired;
    for (const obs::HistogramValue &h :
         obs::delta(obs::Registry::instance().snapshot(), before)
             .histograms)
        if (h.name.rfind("span.", 0) == 0 && h.count > 0)
            fired[h.name.substr(5)] = h.count;
    EXPECT_FALSE(fired.empty());
    EXPECT_EQ(exported, fired);
}

TEST(TraceRoots, SampledModelBuildExportsEverySpan)
{
    util::setGlobalThreads(3);
    const dspace::DesignSpace space = dspace::paperTrainSpace();
    const auto trace =
        trace::generateTrace(trace::profileByName("mcf"), 2000);
    core::SimulatorOracle oracle(space, trace);
    core::ModelBuilder builder(space, dspace::paperTestSpace(), oracle);
    core::BuildOptions opts;
    opts.sample_sizes = {20};
    opts.num_test_points = 12;
    opts.lhs_candidates = 2;
    opts.trainer.p_min_grid = {1, 2};
    opts.trainer.alpha_grid = {2, 4};
    {
        TracingOn tracing(1);
        const obs::Snapshot before = obs::Registry::instance().snapshot();
        builder.build(opts);
        expectOneWholeTrace("core.build", before);
    }
    util::setGlobalThreads(0);
}

TEST(TraceRoots, SampledTrainerStepExportsEverySpan)
{
    namespace fs = std::filesystem;
    util::setGlobalThreads(3);
    const fs::path dir =
        fs::temp_directory_path() /
        ("ppm_trace_roots_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const std::string archive = (dir / "a.ppma").string();
    const dspace::DesignSpace space = dspace::paperTrainSpace();
    {
        // A smooth stand-in response over memo-keyed points.
        serve::ResultArchive ar(archive, "twolf|t2000|w0|CPI");
        math::Rng rng(5);
        for (int i = 0; i < 24; ++i) {
            const dspace::DesignPoint p = space.randomPoint(rng);
            const dspace::UnitPoint u = space.toUnit(p);
            core::ResultStore::Key key;
            for (double v : p)
                key.push_back(std::llround(v * 1e6));
            ar.append(key, 1.0 + 0.5 * u.front() + 0.25 * u.back());
        }
    }
    train::OnlineTrainerOptions opts;
    opts.trace_length = 2000;
    opts.min_train_points = 10;
    train::OnlineTrainer trainer(space, opts);
    trainer.addArchive(archive);
    {
        TracingOn tracing(1);
        const obs::Snapshot before = obs::Registry::instance().snapshot();
        EXPECT_GE(trainer.step(), 10u);
        EXPECT_EQ(trainer.refits(), 1u);
        expectOneWholeTrace("train.root", before);
    }
    util::setGlobalThreads(0);
    fs::remove_all(dir);
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
