/**
 * @file
 * Versioned, CRC-checked binary model snapshots: everything a
 * prediction server needs to answer CPI queries without a simulator —
 * the trained RBF network (centers, per-dimension radii, output
 * weights), the linear regression baseline, and the design-space
 * metadata (parameter names, ranges, levels, transforms) the model
 * was trained on, so incoming query points can be validated against
 * the trained space.
 *
 * Image layout (all integers little-endian, see wire_codec.hh):
 *
 *     u32  magic        'PPMM' (0x50504D4D)
 *     u16  format       exactly kSnapshotFormat
 *     u16  flags        reserved, must be zero
 *     u32  payload_len  <= kMaxModelBytes
 *     u8   payload[payload_len]
 *     u32  crc          CRC-32 of the payload bytes
 *
 * Payload:
 *
 *     u64  model_version          (monotonic; drives hot-swap)
 *     str  benchmark   u16 metric   u64 trace_length   u64 warmup
 *     u32  train_points   u32 p_min   f64 alpha
 *     f64  cv_error               (see ModelSnapshot)
 *     u32  dims
 *     dims x { str name  f64 min  f64 max  u32 levels
 *              u8 transform  u8 integer }
 *     u32  num_bases
 *     num_bases x { dims x f64 center, dims x f64 radius }
 *     num_bases x f64 weight
 *     u8   has_linear
 *     [ u32 num_terms; num_terms x { u32 i+1, u32 j+1 };
 *       num_terms x f64 coefficient ]
 *
 * Decoding validates everything semantically — finite floats, strictly
 * positive radii, coherent ranges and term indices — so a loaded
 * snapshot can never serve NaNs or crash the predictor; any violation
 * raises SnapshotError. Publishing is crash-safe: saveSnapshot()
 * writes to a temporary file and atomically rename()s it into place,
 * so a reader (or a SIGKILL mid-publish) only ever sees a complete
 * old or complete new image.
 */

#ifndef PPM_SERVE_MODEL_SNAPSHOT_HH
#define PPM_SERVE_MODEL_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/oracle.hh"
#include "dspace/design_space.hh"
#include "linreg/linear_model.hh"
#include "rbf/network.hh"
#include "serve/protocol.hh"

namespace ppm::serve {

/**
 * Malformed, corrupt, or semantically invalid snapshot data. Derives
 * from ProtocolError so transport code that already rejects malformed
 * frames rejects malformed snapshots the same way.
 */
class SnapshotError : public ProtocolError
{
  public:
    using ProtocolError::ProtocolError;
};

/** First four bytes of every snapshot image. */
inline constexpr std::uint32_t kSnapshotMagic = 0x50504D4Du; // "PPMM"

/**
 * Snapshot format version this build writes and reads. Format 2 added
 * the training-time cross-validation error (the drift-monitor
 * baseline); other formats are rejected.
 */
inline constexpr std::uint16_t kSnapshotFormat = 2;

/** Bytes before the payload: magic + format + flags + payload_len. */
inline constexpr std::size_t kSnapshotHeaderSize = 12;

/** Hard cap on snapshot dimensionality. */
inline constexpr std::uint32_t kMaxSnapshotDims = 256;

/** Hard cap on RBF bases in a snapshot. */
inline constexpr std::uint32_t kMaxSnapshotBases = 65536;

/** Hard cap on linear baseline terms in a snapshot. */
inline constexpr std::uint32_t kMaxSnapshotTerms = 65536;

/**
 * A loaded (or about-to-be-published) model snapshot: the trained
 * models plus the provenance needed to validate queries against the
 * trained space and to tell versions apart when hot-swapping.
 */
struct ModelSnapshot
{
    /**
     * Monotonic version of this model. A server hot-swaps only to a
     * strictly greater version, so republishing an old image can
     * never roll an active server backwards.
     */
    std::uint64_t model_version = 0;

    /** Benchmark profile the training responses came from. */
    std::string benchmark;
    core::Metric metric = core::Metric::Cpi;
    std::uint64_t trace_length = 0;
    std::uint64_t warmup = 0;

    /** Training-set size (provenance; Table 4 reporting). */
    std::uint32_t train_points = 0;
    /** Chosen tree leaf size of the winning RBF model. */
    std::uint32_t p_min = 0;
    /** Chosen radius scale of the winning RBF model. */
    double alpha = 0.0;
    /**
     * Training-time cross-validation mean relative error of the
     * published model — the accuracy the model demonstrated on
     * held-out training data. The serve-plane drift monitor compares
     * live shadow-simulated error against this baseline to decide
     * when the model has degraded. 0 = unknown (publishers that
     * skipped CV).
     */
    double cv_error = 0.0;

    /** The design space the model was trained on. */
    dspace::DesignSpace space;
    /** The trained RBF network (paper Eq 1), over unit points. */
    rbf::RbfNetwork network;
    /** The linear baseline; empty() when not published. */
    linreg::LinearModel linear;
};

/** Encode @p snap to a self-contained CRC-checked image. */
std::vector<std::uint8_t> encodeSnapshot(const ModelSnapshot &snap);

/**
 * Decode and fully validate a snapshot image.
 * @throws SnapshotError on any structural or semantic violation.
 */
ModelSnapshot decodeSnapshot(const std::uint8_t *data,
                             std::size_t size);
ModelSnapshot decodeSnapshot(const std::vector<std::uint8_t> &bytes);

/**
 * Atomically publish @p snap to @p path: the image is written to a
 * unique temporary file in the same directory, fsync()ed, and
 * rename()d over @p path, so concurrent readers (and crashes at any
 * instant) see either the complete old file or the complete new one.
 * @throws SnapshotError on encoding or I/O failure.
 */
void saveSnapshot(const ModelSnapshot &snap, const std::string &path);

/** Load and validate the snapshot at @p path. @throws SnapshotError. */
ModelSnapshot loadSnapshot(const std::string &path);

/**
 * Predict a batch of raw design points from a loaded snapshot:
 * validates each point's dimensionality and range against the
 * snapshot's design space, maps it to the unit hypercube, and
 * evaluates the requested model. Bit-identical to calling
 * space.toUnit() + network.predict() by hand — the remote PREDICT
 * path and the local fallback both route through here, which is what
 * makes shard-count-independent bit-equality hold.
 *
 * Range checks are inclusive: a coordinate at exactly the parameter
 * minimum or maximum is in-space (Parameter::contains additionally
 * absorbs a few ulps of round-trip error at the boundary), so
 * querying the corners of the trained design space always succeeds.
 *
 * @throws SnapshotError on a dimensionality mismatch, an
 *         out-of-space point, an empty RBF network, or
 *         ModelKind::Linear without a published baseline.
 */
std::vector<double> predictWithSnapshot(
    const ModelSnapshot &snap,
    const std::vector<dspace::DesignPoint> &points,
    ModelKind model = ModelKind::Rbf);

/**
 * The same over a decoded PREDICT batch (the server's path): the
 * points go to the unit hypercube in one block and reach the kernel
 * with no per-point vector. The vector form above routes through
 * here.
 */
std::vector<double> predictWithSnapshot(const ModelSnapshot &snap,
                                        const PredictBatch &batch);

/** Wire metadata describing @p snap (for ModelInfoResponse). */
ModelInfo describeSnapshot(const ModelSnapshot &snap);

} // namespace ppm::serve

#endif // PPM_SERVE_MODEL_SNAPSHOT_HH
