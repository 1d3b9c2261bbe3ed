#include "serve/protocol.hh"

#include <cstring>

#include "serve/wire_codec.hh"
#include "util/crc32.hh"

namespace ppm::serve {

namespace {

/**
 * Smallest encoded TraceSpan: six u64 fields, the u32 length of an
 * empty name and the u32 tid.
 */
constexpr std::size_t kMinEncodedSpan = 6 * 8 + 4 + 4;

bool
knownType(std::uint16_t t)
{
    return t >= static_cast<std::uint16_t>(MsgType::EvalRequest) &&
           t <= static_cast<std::uint16_t>(MsgType::TraceResponse);
}

std::vector<std::uint8_t>
encodeNonce(MsgType type, std::uint64_t nonce)
{
    PayloadWriter w;
    w.u64(nonce);
    return encodeFrame(type, w.take());
}

std::uint64_t
parseNonce(const std::vector<std::uint8_t> &payload)
{
    PayloadReader r(payload.data(), payload.size());
    const std::uint64_t nonce = r.u64();
    r.expectEnd();
    return nonce;
}

} // namespace

std::vector<std::uint8_t>
encodeFrame(MsgType type, const std::vector<std::uint8_t> &payload)
{
    if (payload.size() > kMaxPayload)
        throw ProtocolError("payload exceeds kMaxPayload");
    PayloadWriter w;
    w.u32(kMagic);
    w.u16(kVersion);
    w.u16(static_cast<std::uint16_t>(type));
    w.u32(static_cast<std::uint32_t>(payload.size()));
    // The trace block is CRC-covered header material: the CRC runs
    // over trace block + payload, so corrupted trace bytes are
    // rejected exactly like corrupted payload bytes.
    const obs::TraceContext ctx = obs::currentTraceContext();
    w.u64(ctx.trace_hi);
    w.u64(ctx.trace_lo);
    w.u64(ctx.parent_span_id);
    w.u8(ctx.flags);
    std::vector<std::uint8_t> frame = w.take();
    frame.insert(frame.end(), payload.begin(), payload.end());
    PayloadWriter trailer;
    trailer.u32(util::crc32(frame.data() + kHeaderSize,
                            frame.size() - kHeaderSize));
    const auto crc = trailer.take();
    frame.insert(frame.end(), crc.begin(), crc.end());
    return frame;
}

FrameHeader
decodeHeader(const std::uint8_t *data, std::size_t size)
{
    if (size < kHeaderSize)
        throw ProtocolError("frame header truncated");
    PayloadReader r(data, kHeaderSize);
    if (r.u32() != kMagic)
        throw ProtocolError("bad frame magic");
    const std::uint16_t version = r.u16();
    if (version != kVersion)
        throw ProtocolError("protocol version mismatch: got " +
                            std::to_string(version) + ", want " +
                            std::to_string(kVersion));
    const std::uint16_t type = r.u16();
    if (!knownType(type))
        throw ProtocolError("unknown message type " +
                            std::to_string(type));
    const std::uint32_t payload_len = r.u32();
    if (payload_len > kMaxPayload)
        throw ProtocolError("frame payload oversized: " +
                            std::to_string(payload_len) + " bytes");
    return FrameHeader{static_cast<MsgType>(type), payload_len};
}

Frame
decodeFrame(const std::uint8_t *data, std::size_t size)
{
    const FrameHeader header = decodeHeader(data, size);
    const std::size_t want = kHeaderSize + kTraceBlockSize +
                             header.payload_len + kTrailerSize;
    if (size < want)
        throw ProtocolError("frame truncated");
    if (size > want)
        throw ProtocolError("trailing bytes after frame");
    const std::uint8_t *body = data + kHeaderSize;
    const std::uint8_t *payload = body + kTraceBlockSize;
    PayloadReader trailer(payload + header.payload_len, kTrailerSize);
    const std::uint32_t want_crc = trailer.u32();
    if (util::crc32(body, kTraceBlockSize + header.payload_len) !=
        want_crc)
        throw ProtocolError("frame CRC mismatch");
    Frame frame;
    frame.type = header.type;
    PayloadReader t(body, kTraceBlockSize);
    frame.trace.trace_hi = t.u64();
    frame.trace.trace_lo = t.u64();
    frame.trace.parent_span_id = t.u64();
    frame.trace.flags = t.u8();
    frame.payload.assign(payload, payload + header.payload_len);
    return frame;
}

Frame
decodeFrame(const std::vector<std::uint8_t> &bytes)
{
    return decodeFrame(bytes.data(), bytes.size());
}

std::vector<std::uint8_t>
encodeEvalRequest(const EvalRequest &req)
{
    PayloadWriter w;
    w.str(req.benchmark);
    w.u16(static_cast<std::uint16_t>(req.metric));
    w.u64(req.trace_length);
    w.u64(req.warmup);
    w.u64(req.seed);
    if (req.points.size() > kMaxPoints)
        throw ProtocolError("too many points in request");
    w.u32(static_cast<std::uint32_t>(req.points.size()));
    const std::size_t dims =
        req.points.empty() ? 0 : req.points.front().size();
    w.u32(static_cast<std::uint32_t>(dims));
    for (const auto &p : req.points) {
        if (p.size() != dims)
            throw ProtocolError("ragged point batch");
        w.f64s(p.data(), dims);
    }
    return encodeFrame(MsgType::EvalRequest, w.take());
}

EvalRequest
parseEvalRequest(const std::vector<std::uint8_t> &payload)
{
    PayloadReader r(payload.data(), payload.size());
    EvalRequest req;
    req.benchmark = r.str();
    const std::uint16_t metric = r.u16();
    if (metric > static_cast<std::uint16_t>(
                     core::Metric::EnergyDelaySquared))
        throw ProtocolError("unknown metric " + std::to_string(metric));
    req.metric = static_cast<core::Metric>(metric);
    req.trace_length = r.u64();
    req.warmup = r.u64();
    req.seed = r.u64();
    const std::uint32_t n = r.u32();
    const std::uint32_t dims = r.u32();
    if (n > kMaxPoints)
        throw ProtocolError("too many points in request");
    if (dims > kMaxDims)
        throw ProtocolError("point dimensionality too large");
    // With dims == 0 the size check below holds for any n, and n
    // empty points would be built from a 0-byte point block.
    if (n > 0 && dims == 0)
        throw ProtocolError("zero-dimension points in request");
    if (r.remaining() != std::size_t{n} * dims * sizeof(double))
        throw ProtocolError("point data size mismatch");
    req.points.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        dspace::DesignPoint p(dims);
        r.f64s(p.data(), dims);
        req.points.push_back(std::move(p));
    }
    r.expectEnd();
    return req;
}

std::vector<std::uint8_t>
encodeEvalResponse(const EvalResponse &resp)
{
    PayloadWriter w;
    if (resp.values.size() > kMaxPoints)
        throw ProtocolError("too many values in response");
    w.u32(static_cast<std::uint32_t>(resp.values.size()));
    w.f64s(resp.values.data(), resp.values.size());
    w.u64(resp.fresh_evaluations);
    w.u64(resp.total_evaluations);
    return encodeFrame(MsgType::EvalResponse, w.take());
}

EvalResponse
parseEvalResponse(const std::vector<std::uint8_t> &payload)
{
    PayloadReader r(payload.data(), payload.size());
    EvalResponse resp;
    const std::uint32_t n = r.u32();
    if (n > kMaxPoints)
        throw ProtocolError("too many values in response");
    if (r.remaining() != std::size_t{n} * sizeof(double) + 16)
        throw ProtocolError("response size mismatch");
    resp.values.resize(n);
    r.f64s(resp.values.data(), n);
    resp.fresh_evaluations = r.u64();
    resp.total_evaluations = r.u64();
    r.expectEnd();
    return resp;
}

std::vector<std::uint8_t>
encodeError(const ErrorReply &err)
{
    PayloadWriter w;
    w.str(err.message.size() <= kMaxString
              ? err.message
              : err.message.substr(0, kMaxString));
    return encodeFrame(MsgType::Error, w.take());
}

ErrorReply
parseError(const std::vector<std::uint8_t> &payload)
{
    PayloadReader r(payload.data(), payload.size());
    ErrorReply err;
    err.message = r.str();
    r.expectEnd();
    return err;
}

std::vector<std::uint8_t>
encodePing(std::uint64_t nonce)
{
    return encodeNonce(MsgType::Ping, nonce);
}

std::vector<std::uint8_t>
encodePong(std::uint64_t nonce)
{
    return encodeNonce(MsgType::Pong, nonce);
}

std::uint64_t
parsePing(const std::vector<std::uint8_t> &payload)
{
    return parseNonce(payload);
}

std::uint64_t
parsePong(const std::vector<std::uint8_t> &payload)
{
    return parseNonce(payload);
}

std::vector<std::uint8_t>
encodeStatsRequest(std::uint64_t nonce)
{
    return encodeNonce(MsgType::StatsRequest, nonce);
}

std::uint64_t
parseStatsRequest(const std::vector<std::uint8_t> &payload)
{
    return parseNonce(payload);
}

std::vector<std::uint8_t>
encodeStatsResponse(const obs::Snapshot &snap)
{
    if (snap.counters.size() > kMaxStatsEntries ||
        snap.gauges.size() > kMaxStatsEntries ||
        snap.histograms.size() > kMaxStatsEntries)
        throw ProtocolError("too many metrics in stats response");
    PayloadWriter w;
    w.u16(kStatsVersion);
    w.u32(static_cast<std::uint32_t>(snap.counters.size()));
    for (const auto &c : snap.counters) {
        w.str(c.name);
        w.u64(c.value);
    }
    w.u32(static_cast<std::uint32_t>(snap.gauges.size()));
    for (const auto &g : snap.gauges) {
        w.str(g.name);
        w.u64(static_cast<std::uint64_t>(g.value));
    }
    w.u32(static_cast<std::uint32_t>(snap.histograms.size()));
    for (const auto &h : snap.histograms) {
        if (h.buckets.size() > kMaxStatsBuckets)
            throw ProtocolError("too many histogram buckets");
        w.str(h.name);
        w.u64(h.count);
        w.u64(h.total_ns);
        w.u32(static_cast<std::uint32_t>(h.buckets.size()));
        for (std::uint64_t b : h.buckets)
            w.u64(b);
    }
    return encodeFrame(MsgType::StatsResponse, w.take());
}

obs::Snapshot
parseStatsResponse(const std::vector<std::uint8_t> &payload)
{
    PayloadReader r(payload.data(), payload.size());
    const std::uint16_t version = r.u16();
    if (version != kStatsVersion)
        throw ProtocolError("stats schema version mismatch: got " +
                            std::to_string(version) + ", want " +
                            std::to_string(kStatsVersion));
    obs::Snapshot snap;
    const std::uint32_t n_counters = r.u32();
    if (n_counters > kMaxStatsEntries)
        throw ProtocolError("too many counters in stats response");
    snap.counters.reserve(n_counters);
    for (std::uint32_t i = 0; i < n_counters; ++i) {
        obs::CounterValue c;
        c.name = r.str();
        c.value = r.u64();
        snap.counters.push_back(std::move(c));
    }
    const std::uint32_t n_gauges = r.u32();
    if (n_gauges > kMaxStatsEntries)
        throw ProtocolError("too many gauges in stats response");
    snap.gauges.reserve(n_gauges);
    for (std::uint32_t i = 0; i < n_gauges; ++i) {
        obs::GaugeValue g;
        g.name = r.str();
        g.value = static_cast<std::int64_t>(r.u64());
        snap.gauges.push_back(std::move(g));
    }
    const std::uint32_t n_hists = r.u32();
    if (n_hists > kMaxStatsEntries)
        throw ProtocolError("too many histograms in stats response");
    snap.histograms.reserve(n_hists);
    for (std::uint32_t i = 0; i < n_hists; ++i) {
        obs::HistogramValue h;
        h.name = r.str();
        h.count = r.u64();
        h.total_ns = r.u64();
        const std::uint32_t n_buckets = r.u32();
        if (n_buckets > kMaxStatsBuckets)
            throw ProtocolError("too many histogram buckets");
        if (r.remaining() <
            std::size_t{n_buckets} * sizeof(std::uint64_t))
            throw ProtocolError("histogram bucket data truncated");
        h.buckets.reserve(n_buckets);
        for (std::uint32_t b = 0; b < n_buckets; ++b)
            h.buckets.push_back(r.u64());
        snap.histograms.push_back(std::move(h));
    }
    r.expectEnd();
    return snap;
}

std::vector<std::uint8_t>
encodePredictRequest(const PredictRequest &req)
{
    return encodePredictRequest(req.model, req.points);
}

std::vector<std::uint8_t>
encodePredictRequest(ModelKind model,
                     std::span<const dspace::DesignPoint> points)
{
    PayloadWriter w;
    w.u16(static_cast<std::uint16_t>(model));
    if (points.size() > kMaxPoints)
        throw ProtocolError("too many points in request");
    w.u32(static_cast<std::uint32_t>(points.size()));
    const std::size_t dims = points.empty() ? 0 : points.front().size();
    w.u32(static_cast<std::uint32_t>(dims));
    for (const auto &p : points) {
        if (p.size() != dims)
            throw ProtocolError("ragged point batch");
        w.f64s(p.data(), dims);
    }
    return encodeFrame(MsgType::PredictRequest, w.take());
}

std::vector<dspace::DesignPoint>
PredictBatch::points() const
{
    std::vector<dspace::DesignPoint> out;
    out.reserve(size());
    for (std::size_t i = 0; i < size(); ++i)
        out.emplace_back(coords.data() + i * dims,
                         coords.data() + (i + 1) * dims);
    return out;
}

PredictBatch
parsePredictBatch(const std::vector<std::uint8_t> &payload)
{
    PayloadReader r(payload.data(), payload.size());
    PredictBatch batch;
    const std::uint16_t model = r.u16();
    if (model > static_cast<std::uint16_t>(ModelKind::Linear))
        throw ProtocolError("unknown model kind " +
                            std::to_string(model));
    batch.model = static_cast<ModelKind>(model);
    const std::uint32_t n = r.u32();
    const std::uint32_t dims = r.u32();
    if (n > kMaxPoints)
        throw ProtocolError("too many points in request");
    if (dims > kMaxDims)
        throw ProtocolError("point dimensionality too large");
    // With dims == 0 the size check below holds for any n, and n
    // empty points would be built from a 0-byte point block.
    if (n > 0 && dims == 0)
        throw ProtocolError("zero-dimension points in request");
    if (r.remaining() != std::size_t{n} * dims * sizeof(double))
        throw ProtocolError("point data size mismatch");
    batch.dims = dims;
    batch.coords.resize(std::size_t{n} * dims);
    r.f64s(batch.coords.data(), batch.coords.size());
    r.expectEnd();
    return batch;
}

PredictRequest
parsePredictRequest(const std::vector<std::uint8_t> &payload)
{
    const PredictBatch batch = parsePredictBatch(payload);
    PredictRequest req;
    req.model = batch.model;
    req.points = batch.points();
    return req;
}

std::vector<std::uint8_t>
encodePredictResponse(const PredictResponse &resp)
{
    PayloadWriter w;
    w.u64(resp.model_version);
    if (resp.values.size() > kMaxPoints)
        throw ProtocolError("too many values in response");
    w.u32(static_cast<std::uint32_t>(resp.values.size()));
    w.f64s(resp.values.data(), resp.values.size());
    return encodeFrame(MsgType::PredictResponse, w.take());
}

PredictResponse
parsePredictResponse(const std::vector<std::uint8_t> &payload)
{
    PayloadReader r(payload.data(), payload.size());
    PredictResponse resp;
    resp.model_version = r.u64();
    const std::uint32_t n = r.u32();
    if (n > kMaxPoints)
        throw ProtocolError("too many values in response");
    if (r.remaining() != std::size_t{n} * sizeof(double))
        throw ProtocolError("response size mismatch");
    resp.values.resize(n);
    r.f64s(resp.values.data(), n);
    r.expectEnd();
    return resp;
}

std::vector<std::uint8_t>
encodeModelInfoRequest(std::uint64_t nonce)
{
    return encodeNonce(MsgType::ModelInfoRequest, nonce);
}

std::uint64_t
parseModelInfoRequest(const std::vector<std::uint8_t> &payload)
{
    return parseNonce(payload);
}

std::vector<std::uint8_t>
encodeModelInfoResponse(const ModelInfo &info)
{
    PayloadWriter w;
    w.u16(info.loaded ? 1 : 0);
    w.u64(info.model_version);
    w.str(info.benchmark);
    w.u16(static_cast<std::uint16_t>(info.metric));
    w.u64(info.trace_length);
    w.u64(info.warmup);
    w.u32(info.num_bases);
    w.u32(info.num_linear_terms);
    if (info.param_names.size() > kMaxDims)
        throw ProtocolError("too many parameter names");
    w.u32(static_cast<std::uint32_t>(info.param_names.size()));
    for (const std::string &name : info.param_names)
        w.str(name);
    return encodeFrame(MsgType::ModelInfoResponse, w.take());
}

ModelInfo
parseModelInfoResponse(const std::vector<std::uint8_t> &payload)
{
    PayloadReader r(payload.data(), payload.size());
    ModelInfo info;
    const std::uint16_t loaded = r.u16();
    if (loaded > 1)
        throw ProtocolError("bad loaded flag in model info");
    info.loaded = loaded == 1;
    info.model_version = r.u64();
    info.benchmark = r.str();
    const std::uint16_t metric = r.u16();
    if (metric > static_cast<std::uint16_t>(
                     core::Metric::EnergyDelaySquared))
        throw ProtocolError("unknown metric " + std::to_string(metric));
    info.metric = static_cast<core::Metric>(metric);
    info.trace_length = r.u64();
    info.warmup = r.u64();
    info.num_bases = r.u32();
    info.num_linear_terms = r.u32();
    const std::uint32_t n_params = r.u32();
    if (n_params > kMaxDims)
        throw ProtocolError("too many parameter names");
    info.param_names.reserve(n_params);
    for (std::uint32_t i = 0; i < n_params; ++i)
        info.param_names.push_back(r.str());
    r.expectEnd();
    return info;
}

std::vector<std::uint8_t>
encodeModelPush(const std::vector<std::uint8_t> &snapshot_bytes)
{
    if (snapshot_bytes.size() > kMaxModelBytes)
        throw ProtocolError("snapshot image exceeds kMaxModelBytes");
    PayloadWriter w;
    w.u32(static_cast<std::uint32_t>(snapshot_bytes.size()));
    std::vector<std::uint8_t> payload = w.take();
    payload.insert(payload.end(), snapshot_bytes.begin(),
                   snapshot_bytes.end());
    return encodeFrame(MsgType::ModelPush, payload);
}

std::vector<std::uint8_t>
parseModelPush(const std::vector<std::uint8_t> &payload)
{
    PayloadReader r(payload.data(), payload.size());
    const std::uint32_t len = r.u32();
    if (len > kMaxModelBytes)
        throw ProtocolError("snapshot image exceeds kMaxModelBytes");
    if (r.remaining() != len)
        throw ProtocolError("snapshot image size mismatch");
    const std::size_t offset = payload.size() - len;
    return std::vector<std::uint8_t>(
        payload.begin() + static_cast<std::ptrdiff_t>(offset),
        payload.end());
}

std::vector<std::uint8_t>
encodeModelPushAck(const ModelPushAck &ack)
{
    PayloadWriter w;
    w.u16(ack.accepted ? 1 : 0);
    w.u64(ack.model_version);
    w.str(ack.message.size() <= kMaxString
              ? ack.message
              : ack.message.substr(0, kMaxString));
    return encodeFrame(MsgType::ModelPushAck, w.take());
}

ModelPushAck
parseModelPushAck(const std::vector<std::uint8_t> &payload)
{
    PayloadReader r(payload.data(), payload.size());
    ModelPushAck ack;
    const std::uint16_t accepted = r.u16();
    if (accepted > 1)
        throw ProtocolError("bad accepted flag in push ack");
    ack.accepted = accepted == 1;
    ack.model_version = r.u64();
    ack.message = r.str();
    r.expectEnd();
    return ack;
}

std::vector<std::uint8_t>
encodeTraceRequest(const TraceRequest &req)
{
    PayloadWriter w;
    w.u64(req.nonce);
    w.u8(req.drain ? 1 : 0);
    return encodeFrame(MsgType::TraceRequest, w.take());
}

TraceRequest
parseTraceRequest(const std::vector<std::uint8_t> &payload)
{
    PayloadReader r(payload.data(), payload.size());
    TraceRequest req;
    req.nonce = r.u64();
    const std::uint8_t drain = r.u8();
    if (drain > 1)
        throw ProtocolError("bad drain flag in trace request");
    req.drain = drain == 1;
    r.expectEnd();
    return req;
}

std::vector<std::uint8_t>
encodeTraceResponse(const TraceDump &dump)
{
    if (dump.spans.size() > kMaxTraceSpans)
        throw ProtocolError("too many spans in trace response");
    PayloadWriter w;
    w.u16(kTraceVersion);
    w.u32(dump.pid);
    w.u64(dump.dropped);
    w.str(dump.endpoint.size() <= kMaxString
              ? dump.endpoint
              : dump.endpoint.substr(0, kMaxString));
    w.u32(static_cast<std::uint32_t>(dump.spans.size()));
    for (const TraceSpan &s : dump.spans) {
        w.u64(s.trace_hi);
        w.u64(s.trace_lo);
        w.u64(s.span_id);
        w.u64(s.parent_span_id);
        w.str(s.name.size() <= kMaxString
                  ? s.name
                  : s.name.substr(0, kMaxString));
        w.u64(s.start_unix_ns);
        w.u64(s.dur_ns);
        w.u32(s.tid);
    }
    return encodeFrame(MsgType::TraceResponse, w.take());
}

TraceDump
parseTraceResponse(const std::vector<std::uint8_t> &payload)
{
    PayloadReader r(payload.data(), payload.size());
    const std::uint16_t version = r.u16();
    if (version != kTraceVersion)
        throw ProtocolError("trace schema version mismatch: got " +
                            std::to_string(version) + ", want " +
                            std::to_string(kTraceVersion));
    TraceDump dump;
    dump.pid = r.u32();
    dump.dropped = r.u64();
    dump.endpoint = r.str();
    const std::uint32_t n = r.u32();
    if (n > kMaxTraceSpans)
        throw ProtocolError("too many spans in trace response");
    // Bound the reserve by the payload: a span encodes to at least
    // kMinEncodedSpan bytes (its name empty).
    if (r.remaining() < std::size_t{n} * kMinEncodedSpan)
        throw ProtocolError("trace span data truncated");
    dump.spans.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        TraceSpan s;
        s.trace_hi = r.u64();
        s.trace_lo = r.u64();
        s.span_id = r.u64();
        s.parent_span_id = r.u64();
        s.name = r.str();
        s.start_unix_ns = r.u64();
        s.dur_ns = r.u64();
        s.tid = r.u32();
        dump.spans.push_back(std::move(s));
    }
    r.expectEnd();
    return dump;
}

} // namespace ppm::serve
