/**
 * @file
 * Wire protocol of the sharded simulation service: length-prefixed,
 * versioned, CRC-checked binary frames carrying simulation requests
 * (benchmark, metric, seed, design points) and their results.
 *
 * Frame layout (all integers little-endian):
 *
 *     u32  magic        'PPMS' (0x50504D53)
 *     u16  version      exactly kVersion; others are rejected
 *     u16  type         MsgType
 *     u32  payload_len  <= kMaxPayload; oversized frames are rejected
 *                       before any allocation
 *     u8   trace[25]    trace context block (see below)
 *     u8   payload[payload_len]
 *     u32  crc          CRC-32 of trace block + payload
 *
 * The trace block is a W3C-traceparent-style context — u64
 * trace_id_hi, u64 trace_id_lo, u64 parent_span_id, u8 flags (bit 0 =
 * sampled) — present in every frame (all-zero when no trace is
 * active) so framing stays fixed-size. It is covered by the frame
 * CRC, so corrupted trace bytes are rejected exactly like corrupted
 * payload bytes.
 *
 * This layer is pure buffer encoding/decoding — no I/O — so malformed
 * frames can be unit-tested byte by byte. Every decode path
 * bounds-checks through PayloadReader and throws ProtocolError on any
 * inconsistency; no malformed input is undefined behaviour.
 */

#ifndef PPM_SERVE_PROTOCOL_HH
#define PPM_SERVE_PROTOCOL_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/oracle.hh"
#include "dspace/design_space.hh"
#include "obs/metrics.hh"
#include "obs/trace_context.hh"

namespace ppm::serve {

/** Malformed, oversized or version-mismatched wire data. */
class ProtocolError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** First four bytes of every frame. */
inline constexpr std::uint32_t kMagic = 0x50504D53u; // "PPMS"

/**
 * Protocol version of every frame this build emits and accepts.
 * v2 added the Stats request/response pair; v3 added the PREDICT and
 * MODEL frame families of the prediction-serving plane; v4 added the
 * trace-context header block and the TRACE frame pair.
 */
inline constexpr std::uint16_t kVersion = 4;

/** Bytes before the payload: magic + version + type + payload_len. */
inline constexpr std::size_t kHeaderSize = 12;

/** Trace block: trace_id hi/lo + parent_span_id + flags. */
inline constexpr std::size_t kTraceBlockSize = 25;

/** Bytes after the payload: the payload CRC. */
inline constexpr std::size_t kTrailerSize = 4;

/** Hard cap on payload_len; larger frames are rejected unread. */
inline constexpr std::uint32_t kMaxPayload = 16u << 20;

/** Hard cap on design points per request. */
inline constexpr std::uint32_t kMaxPoints = 1u << 20;

/** Hard cap on encoded strings (benchmark names, error messages). */
inline constexpr std::uint32_t kMaxString = 4096;

/**
 * Schema version of the Stats payload, carried inside the payload so
 * the metric layout can evolve without a whole-protocol bump.
 */
inline constexpr std::uint16_t kStatsVersion = 1;

/** Hard cap on metrics per section of a Stats payload. */
inline constexpr std::uint32_t kMaxStatsEntries = 4096;

/** Hard cap on histogram buckets in a Stats payload. */
inline constexpr std::uint32_t kMaxStatsBuckets = 64;

/**
 * Hard cap on an encoded model snapshot image carried in a ModelPush
 * frame (and on snapshot files; see model_snapshot.hh).
 */
inline constexpr std::uint32_t kMaxModelBytes = 8u << 20;

/** Schema version of the Trace payload (inside-payload, like Stats). */
inline constexpr std::uint16_t kTraceVersion = 1;

/** Hard cap on spans in one TraceResponse. */
inline constexpr std::uint32_t kMaxTraceSpans = 1u << 16;

enum class MsgType : std::uint16_t
{
    EvalRequest = 1,   //!< evaluate a batch of design points
    EvalResponse = 2,  //!< values for a batch, in request order
    Error = 3,         //!< request failed server-side; message inside
    Ping = 4,          //!< liveness probe, echoes a nonce
    Pong = 5,          //!< reply to Ping with the same nonce
    StatsRequest = 6,  //!< poll the server's metric registry
    StatsResponse = 7, //!< snapshot of the server's metric registry
    // v3: the prediction-serving plane.
    PredictRequest = 8,    //!< predict a batch from the loaded model
    PredictResponse = 9,   //!< predictions + model version echo
    ModelInfoRequest = 10, //!< query loaded-model metadata/version
    ModelInfoResponse = 11, //!< loaded-model metadata/version
    ModelPush = 12,        //!< push a snapshot image for hot-swap
    ModelPushAck = 13,     //!< result of a ModelPush
    // v4: distributed tracing.
    TraceRequest = 14,  //!< pull the server's sampled-span buffer
    TraceResponse = 15, //!< span buffer, stamped with pid/endpoint
};

/** A batch of design points to evaluate on a benchmark trace. */
struct EvalRequest
{
    std::string benchmark;      //!< profile name, e.g. "mcf"
    core::Metric metric = core::Metric::Cpi;
    std::uint64_t trace_length = 0; //!< instructions in the trace
    std::uint64_t warmup = 0;       //!< SimOptions::warmup_instructions
    /**
     * Base seed of the requesting sweep. The simulator is
     * deterministic so v1 servers do not consume it; it is carried so
     * stochastic backends can derive per-item streams with
     * Rng::stream(seed, index) without a protocol bump.
     */
    std::uint64_t seed = 0;
    std::vector<dspace::DesignPoint> points;
};

/** Result of an EvalRequest. */
struct EvalResponse
{
    std::vector<double> values; //!< one per request point, in order
    /**
     * Simulations actually executed for this request (points served
     * from the memo cache or archive cost none). Approximate when
     * other clients hit the same oracle concurrently.
     */
    std::uint64_t fresh_evaluations = 0;
    /** Oracle-lifetime simulation count after this request. */
    std::uint64_t total_evaluations = 0;
};

/** Server-side failure description. */
struct ErrorReply
{
    std::string message;
};

/** Which trained model a PredictRequest asks to evaluate. */
enum class ModelKind : std::uint16_t
{
    Rbf = 0,    //!< the RBF network (the paper's model)
    Linear = 1, //!< the linear regression baseline
};

/** A batch of raw design points to predict from the loaded model. */
struct PredictRequest
{
    ModelKind model = ModelKind::Rbf;
    std::vector<dspace::DesignPoint> points;
};

/** Result of a PredictRequest. */
struct PredictResponse
{
    /** Version of the snapshot that produced the values. */
    std::uint64_t model_version = 0;
    std::vector<double> values; //!< one per request point, in order
};

/** Metadata of the server's loaded model (ModelInfoResponse). */
struct ModelInfo
{
    bool loaded = false; //!< false = no snapshot installed yet
    std::uint64_t model_version = 0;
    std::string benchmark;
    core::Metric metric = core::Metric::Cpi;
    std::uint64_t trace_length = 0;
    std::uint64_t warmup = 0;
    std::uint32_t num_bases = 0;        //!< RBF hidden units
    std::uint32_t num_linear_terms = 0; //!< 0 = no linear baseline
    /** Design-space parameter names, in point order. */
    std::vector<std::string> param_names;
};

/** Result of a ModelPush. */
struct ModelPushAck
{
    /** True iff the pushed snapshot was installed (hot-swapped). */
    bool accepted = false;
    /** Active model version after the push (0 = none loaded). */
    std::uint64_t model_version = 0;
    /** Human-readable disposition ("installed", rejection reason). */
    std::string message;
};

/** One span pulled over the wire (TraceResponse body). */
struct TraceSpan
{
    std::uint64_t trace_hi = 0;
    std::uint64_t trace_lo = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_span_id = 0;
    std::string name;
    std::uint64_t start_unix_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t tid = 0;
};

/** Ask a server for its sampled spans. */
struct TraceRequest
{
    std::uint64_t nonce = 0;
    bool drain = false; //!< true: clear the server buffer after copy
};

/** A server's span buffer, stamped for cross-process merging. */
struct TraceDump
{
    std::uint32_t pid = 0;
    std::uint64_t dropped = 0;  //!< spans lost to the buffer cap
    std::string endpoint;       //!< server's listen spec ("" = local)
    std::vector<TraceSpan> spans;
};

/** A decoded frame: its type, trace context and raw payload bytes. */
struct Frame
{
    MsgType type = MsgType::Error;
    obs::TraceContext trace;
    std::vector<std::uint8_t> payload;
};

/** Header fields needed to size the rest of a frame read. */
struct FrameHeader
{
    MsgType type = MsgType::Error;
    std::uint32_t payload_len = 0;
};

// --- encoding ---------------------------------------------------------

std::vector<std::uint8_t> encodeEvalRequest(const EvalRequest &req);
std::vector<std::uint8_t> encodeEvalResponse(const EvalResponse &resp);
std::vector<std::uint8_t> encodeError(const ErrorReply &err);
std::vector<std::uint8_t> encodePing(std::uint64_t nonce);
std::vector<std::uint8_t> encodePong(std::uint64_t nonce);
std::vector<std::uint8_t> encodeStatsRequest(std::uint64_t nonce);
std::vector<std::uint8_t> encodeStatsResponse(const obs::Snapshot &snap);
std::vector<std::uint8_t> encodePredictRequest(
    const PredictRequest &req);
std::vector<std::uint8_t> encodePredictResponse(
    const PredictResponse &resp);
std::vector<std::uint8_t> encodeModelInfoRequest(std::uint64_t nonce);
std::vector<std::uint8_t> encodeModelInfoResponse(const ModelInfo &info);
std::vector<std::uint8_t> encodeModelPush(
    const std::vector<std::uint8_t> &snapshot_bytes);
std::vector<std::uint8_t> encodeModelPushAck(const ModelPushAck &ack);
std::vector<std::uint8_t> encodeTraceRequest(const TraceRequest &req);
std::vector<std::uint8_t> encodeTraceResponse(const TraceDump &dump);

/** Frame an arbitrary payload (building block of the encoders). */
std::vector<std::uint8_t> encodeFrame(
    MsgType type, const std::vector<std::uint8_t> &payload);

// --- decoding ---------------------------------------------------------

/**
 * Validate the first kHeaderSize bytes of a frame. Throws
 * ProtocolError on short input, bad magic, a version other than
 * kVersion, unknown type, or a payload_len above kMaxPayload.
 */
FrameHeader decodeHeader(const std::uint8_t *data, std::size_t size);

/**
 * Decode one complete frame (header + payload + CRC trailer). The
 * buffer must contain exactly one frame; trailing bytes are rejected.
 */
Frame decodeFrame(const std::uint8_t *data, std::size_t size);
Frame decodeFrame(const std::vector<std::uint8_t> &bytes);

EvalRequest parseEvalRequest(const std::vector<std::uint8_t> &payload);
EvalResponse parseEvalResponse(const std::vector<std::uint8_t> &payload);
ErrorReply parseError(const std::vector<std::uint8_t> &payload);
std::uint64_t parsePing(const std::vector<std::uint8_t> &payload);
std::uint64_t parsePong(const std::vector<std::uint8_t> &payload);
std::uint64_t parseStatsRequest(const std::vector<std::uint8_t> &payload);
obs::Snapshot parseStatsResponse(const std::vector<std::uint8_t> &payload);
PredictRequest parsePredictRequest(
    const std::vector<std::uint8_t> &payload);
PredictResponse parsePredictResponse(
    const std::vector<std::uint8_t> &payload);
std::uint64_t parseModelInfoRequest(
    const std::vector<std::uint8_t> &payload);
ModelInfo parseModelInfoResponse(
    const std::vector<std::uint8_t> &payload);
std::vector<std::uint8_t> parseModelPush(
    const std::vector<std::uint8_t> &payload);
ModelPushAck parseModelPushAck(
    const std::vector<std::uint8_t> &payload);
TraceRequest parseTraceRequest(
    const std::vector<std::uint8_t> &payload);
TraceDump parseTraceResponse(
    const std::vector<std::uint8_t> &payload);

} // namespace ppm::serve

#endif // PPM_SERVE_PROTOCOL_HH
