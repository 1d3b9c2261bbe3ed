/**
 * @file
 * Structure-aware protocol fuzzing: a corpus of valid frames, at least
 * one per message type, is pushed through eight mutators — random bit flips,
 * byte substitutions, truncations, extensions, length-field lies, CRC
 * corruption, version skew, unknown type codes — for >= 10k
 * deterministic mutants (math::Rng::stream, so every run fuzzes the
 * exact same inputs). Every mutant must be rejected with ProtocolError
 * by decodeFrame or the type-dispatched payload parser: no crash, no
 * hang, no other exception type, and never silent acceptance.
 *
 * The bit/byte mutators deliberately skip the type field (offsets
 * 6-7): flipping between valid nonce-frame codes (Ping=4 <-> Pong=5)
 * can produce a genuinely well-formed different frame, which is a
 * routing concern for the request/response layer, not a parsing bug.
 * A dedicated mutator covers the type field with codes outside the
 * known range instead.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dspace/paper_space.hh"
#include "math/rng.hh"
#include "serve/protocol.hh"
#include "serve/wire_codec.hh"

namespace {

using namespace ppm;
using Bytes = std::vector<std::uint8_t>;

/** Offsets of the 16-bit type field, excluded from blind mutators. */
constexpr std::size_t kTypeOffset = 6;
constexpr std::size_t kTypeEnd = 8;

/** Offset of the 32-bit payload_len field. */
constexpr std::size_t kLenOffset = 8;

/** Offset of the 16-bit version field. */
constexpr std::size_t kVersionOffset = 4;

/**
 * The highest type code. dispatchParse() handles every MsgType: this
 * target builds with -Werror=switch, so a new type fails to compile
 * until it has a parse case, and must then also move this bound.
 */
constexpr std::uint16_t kLastType =
    static_cast<std::uint16_t>(serve::MsgType::TraceResponse);

void
putU16(Bytes &b, std::size_t off, std::uint16_t v)
{
    b[off] = static_cast<std::uint8_t>(v & 0xFF);
    b[off + 1] = static_cast<std::uint8_t>(v >> 8);
}

void
putU32(Bytes &b, std::size_t off, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        b[off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t
getU16(const Bytes &b, std::size_t off)
{
    return static_cast<std::uint16_t>(b[off] |
                                      (b[off + 1] << 8));
}

/** One valid frame per message type, with realistic payloads. */
std::vector<Bytes>
corpus()
{
    std::vector<Bytes> frames;
    frames.push_back(serve::encodePing(0x1122334455667788ULL));
    frames.push_back(serve::encodePong(0xA5A5A5A5ULL));
    frames.push_back(serve::encodeStatsRequest(7));
    frames.push_back(
        serve::encodeError({"benchmark 'zeus' is unknown"}));

    serve::EvalRequest req;
    req.benchmark = "mcf";
    req.metric = core::Metric::Cpi;
    req.trace_length = 12000;
    req.warmup = 2000;
    req.seed = 42;
    dspace::DesignSpace space = dspace::paperTrainSpace();
    math::Rng rng(9);
    req.points.push_back(space.randomPoint(rng));
    req.points.push_back(space.randomPoint(rng));
    frames.push_back(serve::encodeEvalRequest(req));

    serve::EvalResponse resp;
    resp.values = {1.25, 2.5, 0.875};
    resp.fresh_evaluations = 2;
    resp.total_evaluations = 17;
    frames.push_back(serve::encodeEvalResponse(resp));

    obs::Snapshot snap;
    snap.counters.push_back({"serve.requests", 12});
    snap.gauges.push_back({"serve.active_connections", 3});
    obs::HistogramValue hist;
    hist.name = "span.serve.request";
    hist.count = 4;
    hist.total_ns = 123456;
    hist.buckets.assign(obs::Histogram::kBuckets, 0);
    hist.buckets[5] = 4;
    snap.histograms.push_back(hist);
    frames.push_back(serve::encodeStatsResponse(snap));

    serve::PredictRequest preq;
    preq.model = serve::ModelKind::Rbf;
    preq.points.push_back(space.randomPoint(rng));
    preq.points.push_back(space.randomPoint(rng));
    frames.push_back(serve::encodePredictRequest(preq));

    serve::PredictResponse presp;
    presp.model_version = 3;
    presp.values = {0.75, 1.5};
    frames.push_back(serve::encodePredictResponse(presp));

    frames.push_back(serve::encodeModelInfoRequest(0xC0FFEE));

    serve::ModelInfo info;
    info.loaded = true;
    info.model_version = 3;
    info.benchmark = "mcf";
    info.metric = core::Metric::Cpi;
    info.trace_length = 12000;
    info.warmup = 2000;
    info.num_bases = 7;
    info.num_linear_terms = 5;
    info.param_names = {"depth", "rob"};
    frames.push_back(serve::encodeModelInfoResponse(info));

    // A model push whose blob is opaque bytes at this layer (the
    // snapshot decoder has its own fuzz suite).
    frames.push_back(serve::encodeModelPush({0xDE, 0xAD, 0xBE, 0xEF}));

    serve::ModelPushAck ack;
    ack.accepted = false;
    ack.model_version = 3;
    ack.message = "stale version 2 (active 3)";
    frames.push_back(serve::encodeModelPushAck(ack));

    serve::TraceRequest treq;
    treq.nonce = 0xBADC0DE;
    treq.drain = true;
    frames.push_back(serve::encodeTraceRequest(treq));

    serve::TraceDump dump;
    dump.pid = 4242;
    dump.dropped = 3;
    dump.endpoint = "unix:/tmp/ppm.sock";
    for (std::uint64_t i = 0; i < 3; ++i) {
        serve::TraceSpan span;
        span.trace_hi = 0x0123456789ABCDEFULL;
        span.trace_lo = 0xFEDCBA9876543210ULL + i;
        span.span_id = 100 + i;
        span.parent_span_id = i == 0 ? 0 : 100;
        span.name = i == 0 ? "serve.request" : "oracle.simulate";
        span.start_unix_ns = 1700000000000000000ULL + 1000 * i;
        span.dur_ns = 250000 / (i + 1);
        span.tid = static_cast<std::uint32_t>(7 + i);
        dump.spans.push_back(span);
    }
    frames.push_back(serve::encodeTraceResponse(dump));
    // An empty buffer: no spans, no endpoint.
    frames.push_back(serve::encodeTraceResponse(serve::TraceDump{}));

    return frames;
}

/**
 * Well-framed frames whose payload only the type's parser can reject:
 * batches of n > 0 zero-dimension points (which pass the point-data
 * size check at 0 bytes), and a span count the payload cannot hold.
 */
std::vector<Bytes>
forgedFrames()
{
    std::vector<Bytes> frames;
    serve::PayloadWriter predict;
    predict.u16(static_cast<std::uint16_t>(serve::ModelKind::Rbf));
    predict.u32(serve::kMaxPoints);
    predict.u32(0);
    frames.push_back(serve::encodeFrame(serve::MsgType::PredictRequest,
                                        predict.take()));

    serve::PayloadWriter eval;
    eval.str("mcf");
    eval.u16(static_cast<std::uint16_t>(core::Metric::Cpi));
    eval.u64(12000);
    eval.u64(2000);
    eval.u64(42);
    eval.u32(serve::kMaxPoints);
    eval.u32(0);
    frames.push_back(
        serve::encodeFrame(serve::MsgType::EvalRequest, eval.take()));

    serve::PayloadWriter trace;
    trace.u16(serve::kTraceVersion);
    trace.u32(4242);
    trace.u64(0);
    trace.str("");
    trace.u32(serve::kMaxTraceSpans);
    frames.push_back(serve::encodeFrame(serve::MsgType::TraceResponse,
                                        trace.take()));
    return frames;
}

/**
 * Parse the payload as the frame's type claims it should parse — the
 * second line of defence behind decodeFrame's framing checks.
 */
void
dispatchParse(const serve::Frame &frame)
{
    switch (frame.type) {
      case serve::MsgType::EvalRequest:
        (void)serve::parseEvalRequest(frame.payload);
        break;
      case serve::MsgType::EvalResponse:
        (void)serve::parseEvalResponse(frame.payload);
        break;
      case serve::MsgType::Error:
        (void)serve::parseError(frame.payload);
        break;
      case serve::MsgType::Ping:
        (void)serve::parsePing(frame.payload);
        break;
      case serve::MsgType::Pong:
        (void)serve::parsePong(frame.payload);
        break;
      case serve::MsgType::StatsRequest:
        (void)serve::parseStatsRequest(frame.payload);
        break;
      case serve::MsgType::StatsResponse:
        (void)serve::parseStatsResponse(frame.payload);
        break;
      case serve::MsgType::PredictRequest:
        (void)serve::parsePredictRequest(frame.payload);
        break;
      case serve::MsgType::PredictResponse:
        (void)serve::parsePredictResponse(frame.payload);
        break;
      case serve::MsgType::ModelInfoRequest:
        (void)serve::parseModelInfoRequest(frame.payload);
        break;
      case serve::MsgType::ModelInfoResponse:
        (void)serve::parseModelInfoResponse(frame.payload);
        break;
      case serve::MsgType::ModelPush:
        (void)serve::parseModelPush(frame.payload);
        break;
      case serve::MsgType::ModelPushAck:
        (void)serve::parseModelPushAck(frame.payload);
        break;
      case serve::MsgType::TraceRequest:
        (void)serve::parseTraceRequest(frame.payload);
        break;
      case serve::MsgType::TraceResponse:
        (void)serve::parseTraceResponse(frame.payload);
        break;
    }
}

/** A named frame mutator; every output must be an invalid frame. */
struct Mutator
{
    const char *name;
    Bytes (*mutate)(const Bytes &frame, math::Rng &rng);
};

/** Random offset into @p frame that avoids the type field. */
std::size_t
offsetSkippingType(const Bytes &frame, math::Rng &rng)
{
    std::size_t off;
    do {
        off = static_cast<std::size_t>(rng.uniformInt(frame.size()));
    } while (off >= kTypeOffset && off < kTypeEnd);
    return off;
}

const Mutator kMutators[] = {
    {"bit-flip",
     [](const Bytes &frame, math::Rng &rng) {
         Bytes m = frame;
         const std::size_t off = offsetSkippingType(m, rng);
         m[off] ^= static_cast<std::uint8_t>(
             1u << rng.uniformInt(8));
         return m;
     }},
    {"byte-substitute",
     [](const Bytes &frame, math::Rng &rng) {
         Bytes m = frame;
         const std::size_t off = offsetSkippingType(m, rng);
         // xor with a nonzero byte: guaranteed to change the value.
         m[off] ^= static_cast<std::uint8_t>(
             1 + rng.uniformInt(255));
         return m;
     }},
    {"truncate",
     [](const Bytes &frame, math::Rng &rng) {
         Bytes m = frame;
         m.resize(static_cast<std::size_t>(
             rng.uniformInt(frame.size())));
         return m;
     }},
    {"extend",
     [](const Bytes &frame, math::Rng &rng) {
         Bytes m = frame;
         const std::size_t extra =
             1 + static_cast<std::size_t>(rng.uniformInt(16));
         for (std::size_t i = 0; i < extra; ++i)
             m.push_back(
                 static_cast<std::uint8_t>(rng.uniformInt(256)));
         return m;
     }},
    {"length-lie",
     [](const Bytes &frame, math::Rng &rng) {
         // A payload_len that disagrees with the actual frame size:
         // sometimes small, sometimes absurd (> kMaxPayload).
         Bytes m = frame;
         std::uint32_t lie =
             rng.bernoulli(0.5)
                 ? static_cast<std::uint32_t>(
                       rng.uniformInt(1u << 20))
                 : serve::kMaxPayload +
                       static_cast<std::uint32_t>(
                           rng.uniformInt(1u << 20));
         std::uint32_t orig = 0;
         for (int i = 0; i < 4; ++i)
             orig |= static_cast<std::uint32_t>(
                         m[kLenOffset + static_cast<std::size_t>(i)])
                     << (8 * i);
         if (lie == orig) // an honest draw is no lie; force a change
             lie ^= 1u;
         putU32(m, kLenOffset, lie);
         return m;
     }},
    {"crc-corrupt",
     [](const Bytes &frame, math::Rng &rng) {
         Bytes m = frame;
         const std::uint32_t x = static_cast<std::uint32_t>(
             1 + rng.uniformInt(0xFFFFFFFFu));
         for (int i = 0; i < 4; ++i)
             m[m.size() - 4 + static_cast<std::size_t>(i)] ^=
                 static_cast<std::uint8_t>(x >> (8 * i));
         return m;
     }},
    {"version-skew",
     [](const Bytes &frame, math::Rng &rng) {
         Bytes m = frame;
         std::uint16_t v;
         do {
             v = static_cast<std::uint16_t>(
                 rng.uniformInt(0x10000));
         } while (v == serve::kVersion);
         putU16(m, kVersionOffset, v);
         return m;
     }},
    {"type-skew",
     [](const Bytes &frame, math::Rng &rng) {
         // Only codes outside the known range: a swap among valid
         // types can be a well-formed different frame.
         Bytes m = frame;
         constexpr std::uint64_t kFirstUnknown = kLastType + 1;
         const std::uint16_t t =
             rng.bernoulli(0.25)
                 ? 0
                 : static_cast<std::uint16_t>(
                       kFirstUnknown +
                       rng.uniformInt(0x10000 - kFirstUnknown));
         putU16(m, kTypeOffset, t);
         return m;
     }},
};

constexpr int kMutantsPerPair = 200;

TEST(ProtocolFuzz, CorpusFramesAreValid)
{
    for (const Bytes &frame : corpus()) {
        serve::Frame decoded;
        ASSERT_NO_THROW(decoded = serve::decodeFrame(frame));
        ASSERT_NO_THROW(dispatchParse(decoded));
    }
}

TEST(ProtocolFuzz, ForgedFramesRejectedByTheirParser)
{
    for (const Bytes &frame : forgedFrames()) {
        serve::Frame decoded;
        ASSERT_NO_THROW(decoded = serve::decodeFrame(frame));
        EXPECT_THROW(dispatchParse(decoded), serve::ProtocolError);
    }
}

TEST(ProtocolFuzz, EveryMutantRejectedWithProtocolError)
{
    std::vector<Bytes> frames = corpus();
    for (Bytes &forged : forgedFrames())
        frames.push_back(std::move(forged));
    std::uint64_t stream_index = 0;
    std::uint64_t mutants = 0;
    std::uint64_t unchanged = 0;
    for (const Bytes &frame : frames) {
        for (const Mutator &mutator : kMutators) {
            for (int i = 0; i < kMutantsPerPair; ++i) {
                math::Rng rng =
                    math::Rng::stream(0xF022, stream_index++);
                const Bytes mutant = mutator.mutate(frame, rng);
                if (mutant == frame) {
                    // A mutator drew an identity transform (cannot
                    // happen by construction; counted defensively so
                    // a regression is visible, not silently skipped).
                    ++unchanged;
                    continue;
                }
                ++mutants;
                bool rejected = false;
                try {
                    const serve::Frame decoded =
                        serve::decodeFrame(mutant);
                    dispatchParse(decoded);
                } catch (const serve::ProtocolError &) {
                    rejected = true;
                } catch (const std::exception &e) {
                    FAIL() << mutator.name << " mutant "
                           << stream_index - 1
                           << " raised a non-protocol exception: "
                           << e.what();
                }
                EXPECT_TRUE(rejected)
                    << mutator.name << " mutant " << stream_index - 1
                    << " (" << mutant.size()
                    << " bytes) was silently accepted";
            }
        }
    }
    EXPECT_EQ(unchanged, 0u);
    EXPECT_GE(mutants, 10000u) << "fuzz corpus shrank below spec";
}

TEST(ProtocolFuzz, Version1FramesAreRejected)
{
    // A peer speaking protocol v1 (pre-Stats) must get a clean
    // ProtocolError, not a misparse.
    for (const Bytes &frame : corpus()) {
        Bytes v1 = frame;
        putU16(v1, kVersionOffset, 1);
        EXPECT_THROW((void)serve::decodeFrame(v1),
                     serve::ProtocolError);
    }
    // Exhaustive, like the type-code sweep below: of all 2^16 version
    // codes exactly kVersion passes the header check.
    const Bytes frame = serve::encodePing(1);
    int accepted = 0;
    for (std::uint32_t v = 0; v < 0x10000; ++v) {
        Bytes m = frame;
        putU16(m, kVersionOffset, static_cast<std::uint16_t>(v));
        try {
            (void)serve::decodeHeader(m.data(), m.size());
            ++accepted;
            EXPECT_EQ(v, serve::kVersion);
        } catch (const serve::ProtocolError &) {
        }
    }
    EXPECT_EQ(accepted, 1);
}

TEST(ProtocolFuzz, HeaderRejectsEveryUnknownTypeCode)
{
    // Exhaustive, not sampled: all 2^16 type codes against a valid
    // frame; exactly the fifteen known codes may pass the header
    // check (Eval/Error/nonce/Stats plus the PREDICT and MODEL
    // families, plus the v4 TRACE pair).
    const Bytes frame = serve::encodePing(1);
    int accepted = 0;
    for (std::uint32_t t = 0; t < 0x10000; ++t) {
        Bytes m = frame;
        putU16(m, kTypeOffset, static_cast<std::uint16_t>(t));
        try {
            (void)serve::decodeHeader(m.data(), m.size());
            ++accepted;
            EXPECT_GE(t, 1u);
            EXPECT_LE(t, kLastType);
        } catch (const serve::ProtocolError &) {
        }
    }
    EXPECT_EQ(accepted, kLastType);
}

TEST(ProtocolFuzz, EveryTruncationLengthIsRejected)
{
    // Exhaustive truncation sweep of the largest corpus frame: every
    // proper prefix must throw, whichever field the cut lands in.
    Bytes largest;
    for (const Bytes &frame : corpus())
        if (frame.size() > largest.size())
            largest = frame;
    for (std::size_t n = 0; n < largest.size(); ++n) {
        const Bytes prefix(largest.begin(),
                           largest.begin() +
                               static_cast<std::ptrdiff_t>(n));
        EXPECT_THROW((void)serve::decodeFrame(prefix),
                     serve::ProtocolError)
            << "prefix length " << n;
    }
}

TEST(ProtocolFuzz, NonceFrameTypeConfusionIsWellFormed)
{
    // The documented reason blind mutators skip the type field:
    // Ping(4) with its type swapped to Pong(5) IS a valid frame —
    // same 8-byte nonce payload, same CRC — so "reject it" would be
    // the wrong spec at this layer. Pin that understanding down.
    Bytes m = serve::encodePing(0xBEEF);
    putU16(m, kTypeOffset, getU16(m, kTypeOffset) ^ 1u); // 4 -> 5
    serve::Frame decoded;
    ASSERT_NO_THROW(decoded = serve::decodeFrame(m));
    EXPECT_EQ(decoded.type, serve::MsgType::Pong);
    EXPECT_EQ(serve::parsePong(decoded.payload), 0xBEEFu);
}

} // namespace
