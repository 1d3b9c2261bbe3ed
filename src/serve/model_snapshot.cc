#include "serve/model_snapshot.hh"

#include <cmath>
#include <system_error>

#include "serve/wire_codec.hh"
#include "util/crc32.hh"
#include "util/file_io.hh"

namespace ppm::serve {

namespace {

[[noreturn]] void
fail(const std::string &what)
{
    throw SnapshotError("model snapshot: " + what);
}

void
checkFinite(double v, const char *what)
{
    if (!std::isfinite(v))
        fail(std::string("non-finite ") + what);
}

std::uint8_t
transformCode(dspace::Transform t)
{
    return t == dspace::Transform::Log ? 1 : 0;
}

/** Encode a Term factor index: 0 = kNone, else index + 1. */
std::uint32_t
termCode(int factor)
{
    return factor == linreg::Term::kNone
               ? 0
               : static_cast<std::uint32_t>(factor) + 1;
}

} // namespace

std::vector<std::uint8_t>
encodeSnapshot(const ModelSnapshot &snap)
{
    const std::size_t dims = snap.space.size();
    if (dims == 0 || dims > kMaxSnapshotDims)
        fail("design space has " + std::to_string(dims) +
             " parameters");
    if (snap.network.empty())
        fail("empty RBF network");
    if (snap.network.dimensions() != dims)
        fail("network dimensionality does not match the space");
    if (snap.network.numBases() > kMaxSnapshotBases)
        fail("too many RBF bases");
    if (snap.model_version == 0)
        fail("model_version must be >= 1");

    PayloadWriter w;
    w.u64(snap.model_version);
    w.str(snap.benchmark);
    w.u16(static_cast<std::uint16_t>(snap.metric));
    w.u64(snap.trace_length);
    w.u64(snap.warmup);
    w.u32(snap.train_points);
    w.u32(snap.p_min);
    checkFinite(snap.alpha, "alpha");
    w.f64(snap.alpha);
    checkFinite(snap.cv_error, "cv_error");
    if (snap.cv_error < 0.0)
        fail("negative cv_error");
    w.f64(snap.cv_error);

    w.u32(static_cast<std::uint32_t>(dims));
    for (std::size_t k = 0; k < dims; ++k) {
        const dspace::Parameter &p = snap.space.param(k);
        if (p.name().empty())
            fail("parameter " + std::to_string(k) + " has no name");
        checkFinite(p.minValue(), "parameter minimum");
        checkFinite(p.maxValue(), "parameter maximum");
        w.str(p.name());
        w.f64(p.minValue());
        w.f64(p.maxValue());
        w.u32(static_cast<std::uint32_t>(p.levels()));
        w.u8(transformCode(p.transform()));
        w.u8(p.isInteger() ? 1 : 0);
    }

    w.u32(static_cast<std::uint32_t>(snap.network.numBases()));
    for (const rbf::GaussianBasis &basis : snap.network.bases()) {
        for (double c : basis.center()) {
            checkFinite(c, "basis center");
            w.f64(c);
        }
        for (double r : basis.radius()) {
            checkFinite(r, "basis radius");
            if (r <= 0.0)
                fail("non-positive basis radius");
            w.f64(r);
        }
    }
    for (double weight : snap.network.weights()) {
        checkFinite(weight, "output weight");
        w.f64(weight);
    }

    if (snap.linear.empty()) {
        w.u8(0);
    } else {
        w.u8(1);
        const auto &terms = snap.linear.terms();
        if (terms.size() > kMaxSnapshotTerms)
            fail("too many linear terms");
        w.u32(static_cast<std::uint32_t>(terms.size()));
        for (const linreg::Term &t : terms) {
            if (t.i != linreg::Term::kNone &&
                static_cast<std::size_t>(t.i) >= dims)
                fail("linear term factor out of range");
            if (t.j != linreg::Term::kNone &&
                static_cast<std::size_t>(t.j) >= dims)
                fail("linear term factor out of range");
            w.u32(termCode(t.i));
            w.u32(termCode(t.j));
        }
        for (double c : snap.linear.coefficients()) {
            checkFinite(c, "linear coefficient");
            w.f64(c);
        }
    }

    const std::vector<std::uint8_t> payload = w.take();
    if (payload.size() > kMaxModelBytes)
        fail("snapshot image exceeds kMaxModelBytes");

    PayloadWriter image;
    image.u32(kSnapshotMagic);
    image.u16(kSnapshotFormat);
    image.u16(0); // flags, reserved
    image.u32(static_cast<std::uint32_t>(payload.size()));
    image.bytes(payload.data(), payload.size());
    image.u32(util::crc32(payload.data(), payload.size()));
    return image.take();
}

ModelSnapshot
decodeSnapshot(const std::uint8_t *data, std::size_t size)
{
    try {
        if (size < kSnapshotHeaderSize + 4)
            fail("image truncated");
        PayloadReader header(data, kSnapshotHeaderSize);
        if (header.u32() != kSnapshotMagic)
            fail("bad magic");
        const std::uint16_t format = header.u16();
        if (format != kSnapshotFormat)
            fail("unsupported format version " +
                 std::to_string(format));
        if (header.u16() != 0)
            fail("nonzero reserved flags");
        const std::uint32_t payload_len = header.u32();
        if (payload_len > kMaxModelBytes)
            fail("payload oversized: " + std::to_string(payload_len) +
                 " bytes");
        if (size != kSnapshotHeaderSize + payload_len + 4)
            fail("image size does not match payload_len");
        const std::uint8_t *payload = data + kSnapshotHeaderSize;
        PayloadReader trailer(payload + payload_len, 4);
        if (util::crc32(payload, payload_len) != trailer.u32())
            fail("payload CRC mismatch");

        PayloadReader r(payload, payload_len);
        ModelSnapshot snap;
        snap.model_version = r.u64();
        if (snap.model_version == 0)
            fail("model_version must be >= 1");
        snap.benchmark = r.str();
        const std::uint16_t metric = r.u16();
        if (metric > static_cast<std::uint16_t>(
                         core::Metric::EnergyDelaySquared))
            fail("unknown metric " + std::to_string(metric));
        snap.metric = static_cast<core::Metric>(metric);
        snap.trace_length = r.u64();
        snap.warmup = r.u64();
        snap.train_points = r.u32();
        snap.p_min = r.u32();
        snap.alpha = r.f64();
        checkFinite(snap.alpha, "alpha");
        snap.cv_error = r.f64();
        checkFinite(snap.cv_error, "cv_error");
        if (snap.cv_error < 0.0)
            fail("negative cv_error");

        const std::uint32_t dims = r.u32();
        if (dims == 0 || dims > kMaxSnapshotDims)
            fail("implausible dimensionality " + std::to_string(dims));
        for (std::uint32_t k = 0; k < dims; ++k) {
            const std::string name = r.str();
            if (name.empty())
                fail("parameter " + std::to_string(k) +
                     " has no name");
            const double min = r.f64();
            const double max = r.f64();
            checkFinite(min, "parameter minimum");
            checkFinite(max, "parameter maximum");
            if (!(min < max))
                fail("degenerate range of parameter '" + name + "'");
            const std::uint32_t levels = r.u32();
            if (levels == 1 || levels > 1u << 20)
                fail("implausible level count of parameter '" + name +
                     "'");
            const std::uint8_t transform = r.u8();
            if (transform > 1)
                fail("unknown transform of parameter '" + name + "'");
            if (transform == 1 && min <= 0.0)
                fail("log transform of parameter '" + name +
                     "' needs a positive range");
            const std::uint8_t integer = r.u8();
            if (integer > 1)
                fail("bad integer flag of parameter '" + name + "'");
            snap.space.add(dspace::Parameter(
                name, min, max, static_cast<int>(levels),
                transform == 1 ? dspace::Transform::Log
                               : dspace::Transform::Linear,
                integer == 1));
        }

        const std::uint32_t num_bases = r.u32();
        if (num_bases == 0 || num_bases > kMaxSnapshotBases)
            fail("implausible basis count " +
                 std::to_string(num_bases));
        // All fixed-width data left: bases, weights, and at least the
        // has_linear flag. Checked up front so a count lie fails here
        // instead of allocating first.
        const std::size_t basis_bytes =
            std::size_t{num_bases} * (2 * dims + 1) * sizeof(double);
        if (r.remaining() < basis_bytes + 1)
            fail("basis data truncated");
        std::vector<rbf::GaussianBasis> bases;
        bases.reserve(num_bases);
        for (std::uint32_t j = 0; j < num_bases; ++j) {
            dspace::UnitPoint center(dims);
            std::vector<double> radius(dims);
            for (auto &c : center) {
                c = r.f64();
                checkFinite(c, "basis center");
            }
            for (auto &rad : radius) {
                rad = r.f64();
                checkFinite(rad, "basis radius");
                if (rad <= 0.0)
                    fail("non-positive radius in basis " +
                         std::to_string(j));
            }
            bases.emplace_back(std::move(center), std::move(radius));
        }
        std::vector<double> weights;
        weights.reserve(num_bases);
        for (std::uint32_t j = 0; j < num_bases; ++j) {
            const double weight = r.f64();
            checkFinite(weight, "output weight");
            weights.push_back(weight);
        }
        snap.network =
            rbf::RbfNetwork(std::move(bases), std::move(weights));

        const std::uint8_t has_linear = r.u8();
        if (has_linear > 1)
            fail("bad linear-baseline flag");
        if (has_linear == 1) {
            const std::uint32_t num_terms = r.u32();
            if (num_terms == 0 || num_terms > kMaxSnapshotTerms)
                fail("implausible linear term count " +
                     std::to_string(num_terms));
            if (r.remaining() !=
                std::size_t{num_terms} * (8 + sizeof(double)))
                fail("linear baseline data size mismatch");
            std::vector<linreg::Term> terms;
            terms.reserve(num_terms);
            for (std::uint32_t t = 0; t < num_terms; ++t) {
                const std::uint32_t ci = r.u32();
                const std::uint32_t cj = r.u32();
                if (ci > dims || cj > dims)
                    fail("linear term factor out of range");
                if (ci == 0 && cj != 0)
                    fail("linear interaction without first factor");
                terms.push_back(linreg::Term{
                    ci == 0 ? linreg::Term::kNone
                            : static_cast<int>(ci) - 1,
                    cj == 0 ? linreg::Term::kNone
                            : static_cast<int>(cj) - 1});
            }
            std::vector<double> coeffs;
            coeffs.reserve(num_terms);
            for (std::uint32_t t = 0; t < num_terms; ++t) {
                const double c = r.f64();
                checkFinite(c, "linear coefficient");
                coeffs.push_back(c);
            }
            snap.linear = linreg::LinearModel(std::move(terms),
                                              std::move(coeffs));
        }
        r.expectEnd();
        return snap;
    } catch (const SnapshotError &) {
        throw;
    } catch (const ProtocolError &e) {
        // Reader-level truncation inside the payload.
        throw SnapshotError(std::string("model snapshot: ") +
                            e.what());
    }
}

ModelSnapshot
decodeSnapshot(const std::vector<std::uint8_t> &bytes)
{
    return decodeSnapshot(bytes.data(), bytes.size());
}

void
saveSnapshot(const ModelSnapshot &snap, const std::string &path)
{
    try {
        util::replaceFile(path, encodeSnapshot(snap));
    } catch (const std::system_error &e) {
        fail(e.what());
    }
}

ModelSnapshot
loadSnapshot(const std::string &path)
{
    std::vector<std::uint8_t> image;
    try {
        image = util::readFile(path, std::uint64_t{kMaxModelBytes} +
                                         kSnapshotHeaderSize + 4);
    } catch (const std::system_error &e) {
        fail(e.what());
    }
    return decodeSnapshot(image);
}

std::vector<double>
predictWithSnapshot(const ModelSnapshot &snap,
                    const std::vector<dspace::DesignPoint> &points,
                    ModelKind model)
{
    if (model == ModelKind::Linear && snap.linear.empty())
        fail("snapshot carries no linear baseline");
    // Decoded snapshots always carry a network, but a hand-assembled
    // ModelSnapshot may not; fail typed here rather than letting the
    // network throw logic_error below.
    if (model == ModelKind::Rbf && snap.network.empty())
        fail("snapshot carries no RBF network");
    std::vector<dspace::UnitPoint> units;
    units.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const dspace::DesignPoint &p = points[i];
        if (p.size() != snap.space.size())
            fail("point " + std::to_string(i) + " has " +
                 std::to_string(p.size()) + " coordinates, model has " +
                 std::to_string(snap.space.size()));
        if (!snap.space.contains(p))
            fail("point " + std::to_string(i) +
                 " is outside the trained design space: " +
                 snap.space.describe(p));
        units.push_back(snap.space.toUnit(p));
    }
    return model == ModelKind::Linear ? snap.linear.predict(units)
                                      : snap.network.predict(units);
}

ModelInfo
describeSnapshot(const ModelSnapshot &snap)
{
    ModelInfo info;
    info.loaded = true;
    info.model_version = snap.model_version;
    info.benchmark = snap.benchmark;
    info.metric = snap.metric;
    info.trace_length = snap.trace_length;
    info.warmup = snap.warmup;
    info.num_bases =
        static_cast<std::uint32_t>(snap.network.numBases());
    info.num_linear_terms =
        static_cast<std::uint32_t>(snap.linear.numTerms());
    info.param_names.reserve(snap.space.size());
    for (const dspace::Parameter &p : snap.space.params())
        info.param_names.push_back(p.name());
    return info;
}

} // namespace ppm::serve
