/**
 * @file
 * Model snapshot suite: golden round-trips (encode -> decode ->
 * encode is byte-identical; save -> load -> predict is bit-identical
 * to the in-process network), semantic validation of every poisoned
 * field class (non-finite floats, non-positive radii, count lies,
 * degenerate parameters), format-version rejection, and the
 * version-gated hot-swap slot.
 *
 * Corruption tests here are *targeted*: each one patches a known
 * field inside a CRC-corrected image so the semantic check — not the
 * checksum — must catch it. Random corruption lives in
 * test_snapshot_fuzz.cc.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/oracle.hh"
#include "dspace/paper_space.hh"
#include "linreg/model_selection.hh"
#include "math/rng.hh"
#include "rbf/trainer.hh"
#include "sampling/sample_gen.hh"
#include "serve/model_host.hh"
#include "serve/model_snapshot.hh"
#include "sim/simulator.hh"
#include "trace/benchmark_profile.hh"
#include "trace/trace_generator.hh"
#include "util/crc32.hh"

namespace {

using namespace ppm;
using Bytes = std::vector<std::uint8_t>;

std::string
tempPath(const std::string &tag)
{
    return testing::TempDir() + "ppm_snap_" + tag + "_" +
           std::to_string(::getpid()) + ".ppmm";
}

/**
 * One genuinely trained model (the fig4/table3 pipeline in
 * miniature): twolf trace, discrepancy-optimized LHS, simulated
 * responses, AICc-selected RBF network plus the linear baseline.
 * Trained once and reused — the suite exercises serialization, not
 * the trainer.
 */
const serve::ModelSnapshot &
trainedSnapshot()
{
    static const serve::ModelSnapshot snap = [] {
        const auto space = dspace::paperTrainSpace();
        const auto trace = trace::generateTrace(
            trace::profileByName("twolf"), 20000);
        core::SimulatorOracle oracle(space, trace);
        math::Rng rng(11);
        const auto sample =
            sampling::bestLatinHypercube(space, 20, 8, rng);
        const std::vector<double> ys =
            oracle.evaluateAll(sample.points);
        std::vector<dspace::UnitPoint> xs;
        for (const auto &p : sample.points)
            xs.push_back(space.toUnit(p));
        const rbf::TrainedRbf trained = rbf::trainRbfModel(xs, ys);
        const linreg::SelectedLinearModel linear =
            linreg::fitSelectedLinearModel(xs, ys);

        serve::ModelSnapshot s;
        s.model_version = 7;
        s.benchmark = "twolf";
        s.metric = core::Metric::Cpi;
        s.trace_length = 20000;
        s.warmup = 0;
        s.train_points = 20;
        s.p_min = static_cast<std::uint32_t>(trained.p_min);
        s.alpha = trained.alpha;
        s.space = space;
        s.network = trained.network;
        s.linear = linear.model;
        return s;
    }();
    return snap;
}

/** Test query batch inside the trained space. */
std::vector<dspace::DesignPoint>
queryPoints(int n)
{
    const auto space = dspace::paperTrainSpace();
    math::Rng rng(29);
    std::vector<dspace::DesignPoint> points;
    for (int i = 0; i < n; ++i)
        points.push_back(space.randomPoint(rng));
    return points;
}

/**
 * Overwrite payload bytes [offset, offset + bytes.size()) of a
 * snapshot image and re-stamp the CRC trailer, producing a
 * checksum-valid image only the semantic validation can reject.
 */
Bytes
patchPayload(Bytes image, std::size_t offset, const Bytes &bytes)
{
    const std::size_t payload_off = serve::kSnapshotHeaderSize;
    const std::size_t payload_len =
        image.size() - payload_off - 4;
    EXPECT_LE(offset + bytes.size(), payload_len);
    std::memcpy(image.data() + payload_off + offset, bytes.data(),
                bytes.size());
    const std::uint32_t crc =
        util::crc32(image.data() + payload_off, payload_len);
    for (int i = 0; i < 4; ++i)
        image[image.size() - 4 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    return image;
}

Bytes
f64Bytes(double v)
{
    Bytes b(sizeof(double));
    std::memcpy(b.data(), &v, sizeof(double));
    return b;
}

/**
 * Payload offset where two images differ (they must). Used to locate
 * a float field byte-exactly without replicating layout arithmetic.
 */
std::size_t
firstDiffOffset(const Bytes &a, const Bytes &b)
{
    EXPECT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return i - serve::kSnapshotHeaderSize;
    ADD_FAILURE() << "images are identical";
    return 0;
}

TEST(ModelSnapshot, EncodeDecodeEncodeIsByteIdentical)
{
    const serve::ModelSnapshot &snap = trainedSnapshot();
    const Bytes image = serve::encodeSnapshot(snap);
    const serve::ModelSnapshot decoded = serve::decodeSnapshot(image);
    EXPECT_EQ(decoded.model_version, snap.model_version);
    EXPECT_EQ(decoded.benchmark, snap.benchmark);
    EXPECT_EQ(decoded.metric, snap.metric);
    EXPECT_EQ(decoded.trace_length, snap.trace_length);
    EXPECT_EQ(decoded.warmup, snap.warmup);
    EXPECT_EQ(decoded.train_points, snap.train_points);
    EXPECT_EQ(decoded.p_min, snap.p_min);
    EXPECT_EQ(decoded.alpha, snap.alpha);
    EXPECT_EQ(decoded.space.size(), snap.space.size());
    EXPECT_EQ(decoded.network.numBases(), snap.network.numBases());
    EXPECT_EQ(decoded.linear.terms(), snap.linear.terms());
    EXPECT_EQ(decoded.linear.coefficients(),
              snap.linear.coefficients());
    // The strongest equality there is: re-encoding the decoded model
    // reproduces the image byte for byte.
    EXPECT_EQ(serve::encodeSnapshot(decoded), image);
}

TEST(ModelSnapshot, SaveLoadPredictIsBitIdenticalToInProcessModel)
{
    const serve::ModelSnapshot &snap = trainedSnapshot();
    const std::string path = tempPath("roundtrip");
    serve::saveSnapshot(snap, path);
    const serve::ModelSnapshot loaded = serve::loadSnapshot(path);
    ::unlink(path.c_str());

    const auto points = queryPoints(40);
    std::vector<dspace::UnitPoint> units;
    for (const auto &p : points)
        units.push_back(snap.space.toUnit(p));
    const std::vector<double> direct = snap.network.predict(units);
    const std::vector<double> via_snapshot =
        serve::predictWithSnapshot(loaded, points);
    ASSERT_EQ(via_snapshot.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(std::memcmp(&via_snapshot[i], &direct[i],
                              sizeof(double)),
                  0)
            << "prediction " << i << " is not bit-identical";
}

TEST(ModelSnapshot, LinearBaselinePredictsBitIdentically)
{
    const serve::ModelSnapshot &snap = trainedSnapshot();
    const serve::ModelSnapshot loaded =
        serve::decodeSnapshot(serve::encodeSnapshot(snap));
    const auto points = queryPoints(10);
    std::vector<dspace::UnitPoint> units;
    for (const auto &p : points)
        units.push_back(snap.space.toUnit(p));
    const std::vector<double> direct = snap.linear.predict(units);
    const std::vector<double> via_snapshot =
        serve::predictWithSnapshot(loaded, points,
                                   serve::ModelKind::Linear);
    ASSERT_EQ(via_snapshot.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(via_snapshot[i], direct[i]);
}

TEST(ModelSnapshot, RejectsLinearQueryWithoutBaseline)
{
    serve::ModelSnapshot snap = trainedSnapshot();
    snap.linear = linreg::LinearModel();
    const serve::ModelSnapshot loaded =
        serve::decodeSnapshot(serve::encodeSnapshot(snap));
    EXPECT_TRUE(loaded.linear.empty());
    EXPECT_THROW(serve::predictWithSnapshot(
                     loaded, queryPoints(1), serve::ModelKind::Linear),
                 serve::SnapshotError);
}

TEST(ModelSnapshot, RejectsQueriesOutsideTheTrainedSpace)
{
    const serve::ModelSnapshot &snap = trainedSnapshot();
    auto point = queryPoints(1).front();
    point[0] = snap.space.param(0).maxValue() * 4;
    EXPECT_THROW(serve::predictWithSnapshot(snap, {point}),
                 serve::SnapshotError);
    point = queryPoints(1).front();
    point.pop_back();
    EXPECT_THROW(serve::predictWithSnapshot(snap, {point}),
                 serve::SnapshotError);
}

TEST(ModelSnapshot, AcceptsQueriesAtExactSpaceBoundary)
{
    // Inclusive-bound contract: the corners of the trained design
    // space are valid queries. A point at exactly min/max in every
    // coordinate — and one a few ulps past the bound, as produced by
    // fromUnit/quantize round trips — must not be rejected.
    const serve::ModelSnapshot &snap = trainedSnapshot();
    dspace::DesignPoint lo, hi, hi_ulps;
    for (const dspace::Parameter &p : snap.space.params()) {
        lo.push_back(p.minValue());
        hi.push_back(p.maxValue());
        double v = p.maxValue();
        for (int i = 0; i < 4; ++i)
            v = std::nextafter(
                v, std::numeric_limits<double>::infinity());
        hi_ulps.push_back(v);
    }
    EXPECT_NO_THROW(serve::predictWithSnapshot(snap, {lo, hi}));
    EXPECT_NO_THROW(serve::predictWithSnapshot(snap, {hi_ulps}));
    // The boundary prediction equals the clamped unit-space one.
    const auto at_hi = serve::predictWithSnapshot(snap, {hi});
    const auto at_hi_ulps =
        serve::predictWithSnapshot(snap, {hi_ulps});
    EXPECT_DOUBLE_EQ(at_hi[0], at_hi_ulps[0]);
}

TEST(ModelSnapshot, RbfQueryWithoutNetworkFailsTyped)
{
    // Hand-assembled snapshot with no network: the serve path throws
    // SnapshotError instead of reaching the network's logic_error.
    serve::ModelSnapshot snap;
    snap.space = trainedSnapshot().space;
    EXPECT_THROW(serve::predictWithSnapshot(snap, queryPoints(1)),
                 serve::SnapshotError);
}

TEST(ModelSnapshot, EncodeRejectsNonFiniteWeight)
{
    serve::ModelSnapshot snap = trainedSnapshot();
    std::vector<double> weights = snap.network.weights();
    weights.back() = std::numeric_limits<double>::quiet_NaN();
    snap.network = rbf::RbfNetwork(snap.network.bases(),
                                   std::move(weights));
    EXPECT_THROW(serve::encodeSnapshot(snap), serve::SnapshotError);
}

TEST(ModelSnapshot, EncodeRejectsVersionZero)
{
    serve::ModelSnapshot snap = trainedSnapshot();
    snap.model_version = 0;
    EXPECT_THROW(serve::encodeSnapshot(snap), serve::SnapshotError);
}

TEST(ModelSnapshot, DecodeRejectsVersionZero)
{
    // model_version is the first payload field; zero it and fix the
    // CRC so only the semantic check can object.
    const Bytes image = serve::encodeSnapshot(trainedSnapshot());
    const Bytes zeroed =
        patchPayload(image, 0, Bytes(8, 0));
    EXPECT_THROW(serve::decodeSnapshot(zeroed), serve::SnapshotError);
}

TEST(ModelSnapshot, DecodeRejectsNonFiniteWeightBytes)
{
    // Locate the last output weight by diffing two images that
    // differ only in that weight, then poison it in place.
    serve::ModelSnapshot snap = trainedSnapshot();
    const Bytes image = serve::encodeSnapshot(snap);
    std::vector<double> weights = snap.network.weights();
    weights.back() += 1.0;
    snap.network =
        rbf::RbfNetwork(snap.network.bases(), std::move(weights));
    const std::size_t weight_off =
        firstDiffOffset(image, serve::encodeSnapshot(snap));

    for (double poison :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()}) {
        const Bytes bad =
            patchPayload(image, weight_off, f64Bytes(poison));
        EXPECT_THROW(serve::decodeSnapshot(bad),
                     serve::SnapshotError);
    }
}

TEST(ModelSnapshot, DecodeRejectsBadRadiusBytes)
{
    // Same diff trick for the first basis radius: NaN, zero, and
    // negative radii must all be rejected before GaussianBasis is
    // constructed (whose contract requires strictly positive radii).
    serve::ModelSnapshot snap = trainedSnapshot();
    const Bytes image = serve::encodeSnapshot(snap);
    std::vector<rbf::GaussianBasis> bases = snap.network.bases();
    std::vector<double> radius = bases.front().radius();
    radius.front() *= 2;
    bases.front() =
        rbf::GaussianBasis(bases.front().center(), radius);
    snap.network = rbf::RbfNetwork(std::move(bases),
                                   snap.network.weights());
    const std::size_t radius_off =
        firstDiffOffset(image, serve::encodeSnapshot(snap));

    for (double poison : {std::numeric_limits<double>::quiet_NaN(),
                          0.0, -0.25}) {
        const Bytes bad =
            patchPayload(image, radius_off, f64Bytes(poison));
        EXPECT_THROW(serve::decodeSnapshot(bad),
                     serve::SnapshotError);
    }
}

TEST(ModelSnapshot, DecodeRejectsHeaderCorruption)
{
    const Bytes image = serve::encodeSnapshot(trainedSnapshot());

    Bytes bad_magic = image;
    bad_magic[0] ^= 0xFF;
    EXPECT_THROW(serve::decodeSnapshot(bad_magic),
                 serve::SnapshotError);

    Bytes bad_format = image;
    bad_format[4] += 1;
    EXPECT_THROW(serve::decodeSnapshot(bad_format),
                 serve::SnapshotError);

    Bytes bad_flags = image;
    bad_flags[6] = 1;
    EXPECT_THROW(serve::decodeSnapshot(bad_flags),
                 serve::SnapshotError);

    Bytes bad_len = image;
    bad_len[8] += 1;
    EXPECT_THROW(serve::decodeSnapshot(bad_len),
                 serve::SnapshotError);

    Bytes bad_crc = image;
    bad_crc.back() ^= 0x01;
    EXPECT_THROW(serve::decodeSnapshot(bad_crc),
                 serve::SnapshotError);
}

TEST(ModelSnapshot, DecodeRejectsFormatOneImage)
{
    // A genuine format-1 image: the format-2 layout without the
    // cv_error field, with payload_len and the CRC fixed up.
    serve::ModelSnapshot snap = trainedSnapshot();
    snap.cv_error = 0.25;
    const Bytes image = serve::encodeSnapshot(snap);
    snap.cv_error = std::nextafter(0.25, 1.0); // differs in byte 0
    const std::size_t cv_off =
        firstDiffOffset(image, serve::encodeSnapshot(snap));
    Bytes payload(image.begin() + serve::kSnapshotHeaderSize,
                  image.end() - 4);
    payload.erase(payload.begin() + static_cast<long>(cv_off),
                  payload.begin() + static_cast<long>(cv_off) + 8);

    Bytes v1(image.begin(), image.begin() + serve::kSnapshotHeaderSize);
    v1[4] = 1; // format
    v1[5] = 0;
    const auto put32 = [&v1](std::size_t at, std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            v1[at + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(v >> (8 * i));
    };
    put32(8, static_cast<std::uint32_t>(payload.size()));
    v1.insert(v1.end(), payload.begin(), payload.end());
    v1.resize(v1.size() + 4);
    put32(v1.size() - 4, util::crc32(payload.data(), payload.size()));

    try {
        (void)serve::decodeSnapshot(v1);
        ADD_FAILURE() << "format-1 image was accepted";
    } catch (const serve::SnapshotError &e) {
        // Rejected for its format code, before any payload parsing.
        EXPECT_NE(std::string(e.what()).find("format version 1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ModelSnapshot, DecodeRejectsEveryTruncation)
{
    const Bytes image = serve::encodeSnapshot(trainedSnapshot());
    // Every 7th length keeps the sweep fast on a multi-KB image;
    // the fuzz suite covers random cuts of every frame anyway.
    for (std::size_t n = 0; n < image.size(); n += 7) {
        EXPECT_THROW(serve::decodeSnapshot(image.data(), n),
                     serve::SnapshotError)
            << "prefix length " << n;
    }
}

TEST(ModelSnapshot, LoadRejectsMissingFile)
{
    EXPECT_THROW(serve::loadSnapshot(tempPath("nonexistent")),
                 serve::SnapshotError);
}

TEST(ModelSnapshot, SnapshotErrorIsAProtocolError)
{
    // Transport code that catches ProtocolError must also cover
    // snapshot validation failures (the ModelPush server path).
    const Bytes garbage = {1, 2, 3};
    EXPECT_THROW(serve::decodeSnapshot(garbage),
                 serve::ProtocolError);
}

TEST(ModelHost, InstallIsVersionGated)
{
    serve::ModelHost host;
    EXPECT_EQ(host.current(), nullptr);
    EXPECT_EQ(host.version(), 0u);

    serve::ModelSnapshot v2 = trainedSnapshot();
    v2.model_version = 2;
    EXPECT_TRUE(host.install(v2, "test"));
    EXPECT_EQ(host.version(), 2u);
    EXPECT_EQ(host.swaps(), 0u); // first install is not a swap

    // Stale and equal versions are refused; the active model stays.
    serve::ModelSnapshot v1 = trainedSnapshot();
    v1.model_version = 1;
    EXPECT_FALSE(host.install(v1, "test"));
    EXPECT_FALSE(host.install(v2, "test"));
    EXPECT_EQ(host.version(), 2u);
    EXPECT_EQ(host.swaps(), 0u);

    serve::ModelSnapshot v3 = trainedSnapshot();
    v3.model_version = 3;
    EXPECT_TRUE(host.install(v3, "test"));
    EXPECT_EQ(host.version(), 3u);
    EXPECT_EQ(host.swaps(), 1u);
}

TEST(ModelHost, OldHandleSurvivesASwap)
{
    serve::ModelHost host;
    serve::ModelSnapshot v1 = trainedSnapshot();
    v1.model_version = 1;
    host.install(v1, "test");
    const auto held = host.current();

    serve::ModelSnapshot v2 = trainedSnapshot();
    v2.model_version = 2;
    host.install(v2, "test");

    // The pre-swap handle still answers with the old model — the
    // in-flight-batch guarantee in miniature.
    EXPECT_EQ(held->model_version, 1u);
    EXPECT_EQ(host.current()->model_version, 2u);
    const auto points = queryPoints(3);
    EXPECT_EQ(serve::predictWithSnapshot(*held, points),
              serve::predictWithSnapshot(v1, points));
}

TEST(ModelHost, LoadFailuresAreCountedNotFatal)
{
    serve::ModelHost host;
    const std::string path = tempPath("corrupt");
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not a snapshot", f);
        std::fclose(f);
    }
    EXPECT_FALSE(host.loadFile(path));
    EXPECT_EQ(host.loadFailures(), 1u);
    EXPECT_EQ(host.current(), nullptr);
    ::unlink(path.c_str());
}

} // namespace
