/**
 * @file
 * Tests for the batched SoA RBF evaluation plan (rbf_batch.hh): the
 * PPM_SIMD dispatch decision, bit-compatibility of the scalar
 * reference path with the legacy AoS loop, bit-exact batch-position
 * independence on every tier, and the scalar-vs-SIMD ULP contract
 * over randomized networks and batches (including padded-lane tails
 * and degenerate 1-center / 1-dimension shapes).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "math/rng.hh"
#include "rbf/network.hh"
#include "rbf/rbf_batch.hh"

namespace {

using namespace ppm;
using namespace ppm::rbf;

// --- dispatch decision ------------------------------------------------

TEST(SimdDispatch, UnsetOrAutoPicksDetected)
{
    for (SimdKind d :
         {SimdKind::Scalar, SimdKind::Avx2, SimdKind::Neon,
          SimdKind::Avx512}) {
        EXPECT_EQ(resolveSimd(nullptr, d), d);
        EXPECT_EQ(resolveSimd("", d), d);
        EXPECT_EQ(resolveSimd("auto", d), d);
        EXPECT_EQ(resolveSimd("on", d), d);
        EXPECT_EQ(resolveSimd("1", d), d);
    }
}

TEST(SimdDispatch, OffForcesScalar)
{
    for (SimdKind d :
         {SimdKind::Scalar, SimdKind::Avx2, SimdKind::Neon,
          SimdKind::Avx512}) {
        EXPECT_EQ(resolveSimd("off", d), SimdKind::Scalar);
        EXPECT_EQ(resolveSimd("scalar", d), SimdKind::Scalar);
        EXPECT_EQ(resolveSimd("0", d), SimdKind::Scalar);
    }
}

TEST(SimdDispatch, ExplicitKernelRequiresAvailability)
{
    EXPECT_EQ(resolveSimd("avx2", SimdKind::Avx2), SimdKind::Avx2);
    EXPECT_EQ(resolveSimd("avx2", SimdKind::Scalar), SimdKind::Scalar);
    EXPECT_EQ(resolveSimd("avx2", SimdKind::Neon), SimdKind::Scalar);
    // An AVX-512 machine also runs AVX2: "avx2" requests the narrower
    // kernel explicitly.
    EXPECT_EQ(resolveSimd("avx2", SimdKind::Avx512), SimdKind::Avx2);
    EXPECT_EQ(resolveSimd("avx512", SimdKind::Avx512),
              SimdKind::Avx512);
    EXPECT_EQ(resolveSimd("avx512", SimdKind::Avx2), SimdKind::Scalar);
    EXPECT_EQ(resolveSimd("avx512", SimdKind::Scalar),
              SimdKind::Scalar);
    EXPECT_EQ(resolveSimd("neon", SimdKind::Neon), SimdKind::Neon);
    EXPECT_EQ(resolveSimd("neon", SimdKind::Avx2), SimdKind::Scalar);
}

TEST(SimdDispatch, UnknownValueFailsSafeToScalar)
{
    EXPECT_EQ(resolveSimd("sse9", SimdKind::Avx2), SimdKind::Scalar);
    EXPECT_EQ(resolveSimd("AVX2", SimdKind::Avx2), SimdKind::Scalar);
}

TEST(SimdDispatch, DetectNeverInventsAnUncompiledKernel)
{
    const SimdKind d = detectSimd();
#if defined(PPM_SIMD_DISABLED)
    EXPECT_EQ(d, SimdKind::Scalar);
#endif
#if defined(__aarch64__)
    EXPECT_NE(d, SimdKind::Avx2);
    EXPECT_NE(d, SimdKind::Avx512);
#else
    EXPECT_NE(d, SimdKind::Neon);
#endif
}

TEST(SimdDispatch, KindNames)
{
    EXPECT_EQ(simdKindName(SimdKind::Scalar), "scalar");
    EXPECT_EQ(simdKindName(SimdKind::Avx2), "avx2");
    EXPECT_EQ(simdKindName(SimdKind::Neon), "neon");
    EXPECT_EQ(simdKindName(SimdKind::Avx512), "avx512");
}

// --- randomized network construction ----------------------------------

/** The bits of @p v: bit-identity checks compare these, not values. */
std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Every kernel this binary and CPU run: scalar, then the vector ones. */
std::vector<SimdKind>
tiersHere()
{
    std::vector<SimdKind> tiers = {SimdKind::Scalar};
    for (const char *name : {"avx2", "neon", "avx512"}) {
        const SimdKind kind = resolveSimd(name, detectSimd());
        if (kind != SimdKind::Scalar)
            tiers.push_back(kind);
    }
    return tiers;
}

struct RandomNet
{
    std::vector<GaussianBasis> bases;
    std::vector<double> weights;
};

RandomNet
randomNet(math::Rng &rng, std::size_t m, std::size_t dims)
{
    RandomNet net;
    for (std::size_t j = 0; j < m; ++j) {
        dspace::UnitPoint c(dims);
        std::vector<double> r(dims);
        for (std::size_t k = 0; k < dims; ++k) {
            c[k] = rng.uniform();
            // Radii spanning tight to broad; tight ones drive the
            // exponent large and exercise the underflow flush.
            r[k] = rng.uniform(0.02, 2.0);
        }
        net.bases.emplace_back(std::move(c), std::move(r));
        net.weights.push_back(rng.gaussian(0.0, 5.0));
    }
    return net;
}

std::vector<dspace::UnitPoint>
randomBatch(math::Rng &rng, std::size_t n, std::size_t dims)
{
    std::vector<dspace::UnitPoint> xs(n, dspace::UnitPoint(dims));
    for (auto &x : xs)
        for (auto &v : x)
            v = rng.uniform();
    return xs;
}

/** Legacy AoS evaluation: the pre-plan RbfNetwork::predict loop. */
double
legacyPredict(const RandomNet &net, const dspace::UnitPoint &x)
{
    double acc = 0.0;
    for (std::size_t j = 0; j < net.bases.size(); ++j)
        acc += net.weights[j] * net.bases[j].evaluate(x);
    return acc;
}

// --- scalar reference path --------------------------------------------

TEST(BatchPlan, ScalarPathBitCompatibleWithLegacyLoop)
{
    math::Rng rng(42);
    for (int it = 0; it < 50; ++it) {
        const std::size_t m = 1 + rng.uniformInt(std::uint64_t{40});
        const std::size_t dims = 1 + rng.uniformInt(std::uint64_t{9});
        const RandomNet net = randomNet(rng, m, dims);
        const BatchPlan plan(net.bases, net.weights,
                             SimdKind::Scalar);
        for (const auto &x : randomBatch(rng, 8, dims))
            EXPECT_EQ(bitsOf(plan.predictOne(x)),
                      bitsOf(legacyPredict(net, x)));
    }
}

TEST(BatchPlan, ScalarBasisRowBitCompatibleWithEvaluate)
{
    math::Rng rng(43);
    const RandomNet net = randomNet(rng, 13, 5);
    const BatchPlan plan(net.bases, {}, SimdKind::Scalar);
    EXPECT_FALSE(plan.hasWeights());
    std::vector<double> row(plan.numBases());
    for (const auto &x : randomBatch(rng, 16, 5)) {
        plan.basisRow(x, row.data());
        for (std::size_t j = 0; j < net.bases.size(); ++j)
            EXPECT_EQ(bitsOf(row[j]), bitsOf(net.bases[j].evaluate(x)));
    }
}

// --- plan construction and validation ---------------------------------

TEST(BatchPlan, PadsToLaneMultiple)
{
    math::Rng rng(44);
    const RandomNet net = randomNet(rng, 5, 3);
    const BatchPlan plan(net.bases, net.weights);
    EXPECT_EQ(plan.numBases(), 5u);
    EXPECT_EQ(plan.paddedBases() % 8, 0u);
    EXPECT_GE(plan.paddedBases(), plan.numBases());
}

TEST(BatchPlan, RejectsInvalidInput)
{
    math::Rng rng(45);
    const RandomNet net = randomNet(rng, 3, 2);
    EXPECT_THROW(BatchPlan({}, {}), std::invalid_argument);
    EXPECT_THROW(BatchPlan(net.bases, {1.0, 2.0}),
                 std::invalid_argument);
    std::vector<GaussianBasis> mixed = net.bases;
    mixed.emplace_back(dspace::UnitPoint{0.5},
                       std::vector<double>{0.5});
    EXPECT_THROW(BatchPlan(mixed, {}), std::invalid_argument);
}

TEST(BatchPlan, PredictWithoutWeightsThrows)
{
    math::Rng rng(46);
    const RandomNet net = randomNet(rng, 3, 2);
    const BatchPlan plan(net.bases, {});
    EXPECT_THROW(plan.predictOne(dspace::UnitPoint{0.5, 0.5}),
                 std::logic_error);
}

TEST(BatchPlan, DimensionMismatchThrows)
{
    math::Rng rng(47);
    const RandomNet net = randomNet(rng, 3, 2);
    const BatchPlan plan(net.bases, net.weights);
    EXPECT_THROW(plan.predictOne(dspace::UnitPoint{0.5}),
                 std::invalid_argument);
    double row[3];
    EXPECT_THROW(plan.basisRow(dspace::UnitPoint{0.1, 0.2, 0.3}, row),
                 std::invalid_argument);
}

// --- batch-position independence --------------------------------------

TEST(BatchPlan, PredictionIndependentOfBatchSize)
{
    // Bit for bit, on every tier this CPU runs. Sizes 0-9 put every
    // 1-3-point tail after zero, one and two 4-query bodies; 255 and
    // 256 are a served chunk with and without a tail. The 1-basis,
    // 1-dimension net is the smallest plan there is.
    const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256};
    const std::pair<std::size_t, std::size_t> shapes[] = {{17, 6},
                                                          {1, 1}};
    math::Rng rng(48);
    for (const SimdKind kind : tiersHere()) {
        for (const auto &[m, dims] : shapes) {
            const RandomNet net = randomNet(rng, m, dims);
            const BatchPlan plan(net.bases, net.weights, kind);
            const auto xs = randomBatch(rng, 256, dims);
            const std::vector<double> big = plan.predict(xs);
            ASSERT_EQ(big.size(), xs.size());
            for (std::size_t i = 0; i < xs.size(); ++i)
                EXPECT_EQ(bitsOf(big[i]), bitsOf(plan.predictOne(xs[i])))
                    << simdKindName(kind) << " m=" << m << " i=" << i;
            for (const std::size_t n : sizes) {
                const std::vector<dspace::UnitPoint> prefix(
                    xs.begin(), xs.begin() + n);
                std::vector<double> flat;
                for (const auto &x : prefix)
                    flat.insert(flat.end(), x.begin(), x.end());
                const std::vector<double> small = plan.predict(prefix);
                const std::vector<double> rows =
                    plan.predictRows(flat, dims);
                ASSERT_EQ(small.size(), n);
                ASSERT_EQ(rows.size(), n);
                for (std::size_t i = 0; i < n; ++i) {
                    EXPECT_EQ(bitsOf(small[i]), bitsOf(big[i]))
                        << simdKindName(kind) << " m=" << m
                        << " n=" << n << " i=" << i;
                    EXPECT_EQ(bitsOf(rows[i]), bitsOf(big[i]))
                        << simdKindName(kind) << " m=" << m
                        << " n=" << n << " i=" << i;
                }
            }
        }
    }
}

// --- scalar vs SIMD ULP contract --------------------------------------

/** Scalar exponent e_j(x) = sum_k (x_k - c_k)^2 / r_k^2. */
double
exponentOf(const GaussianBasis &b, const dspace::UnitPoint &x)
{
    double e = 0.0;
    for (std::size_t k = 0; k < b.dimensions(); ++k) {
        const double d = x[k] - b.center()[k];
        e += d * d * b.invRadiusSq()[k];
    }
    return e;
}

/**
 * Bound from rbf_batch.hh: |f_simd - f_scalar| <=
 * eps * sum_j |w_j| h_j ((d + 2) e_j + kExpUlpBound + m + 4)
 * + DBL_MIN. The e_j factor is the dominant term: a few-ulp FMA
 * perturbation of the exp argument scales the response relatively by
 * the argument's magnitude.
 */
double
ulpBound(const RandomNet &net, const dspace::UnitPoint &x)
{
    const double m = static_cast<double>(net.bases.size());
    const double d = static_cast<double>(net.bases[0].dimensions());
    const double eps = std::numeric_limits<double>::epsilon();
    double s = 0.0;
    for (std::size_t j = 0; j < net.bases.size(); ++j) {
        const double e = exponentOf(net.bases[j], x);
        const double h = net.bases[j].evaluate(x);
        s += std::fabs(net.weights[j]) * h *
             ((d + 2.0) * e + kExpUlpBound + m + 4.0);
    }
    // The DBL_MIN floor admits the flush-to-zero of denormals.
    return eps * s + std::numeric_limits<double>::min();
}

TEST(BatchPlanProperty, SimdMatchesScalarWithinUlpBound)
{
    const SimdKind active = activeSimd();
    // Shapes chosen to hit padded-lane tails (m % 8 != 0), exact
    // multiples, and the degenerate 1-center and 1-dimension cases.
    const std::size_t shapes[][2] = {
        {1, 1},  {1, 9},  {2, 3},  {7, 4},  {8, 4},
        {9, 4},  {16, 9}, {31, 2}, {33, 6}, {64, 9},
    };
    math::Rng rng(4242);
    std::size_t checked = 0;
    for (const auto &shape : shapes) {
        const std::size_t m = shape[0], dims = shape[1];
        for (int rep = 0; rep < 10; ++rep) {
            const RandomNet net = randomNet(rng, m, dims);
            const BatchPlan simd(net.bases, net.weights, active);
            const BatchPlan scalar(net.bases, net.weights,
                                   SimdKind::Scalar);
            const auto xs = randomBatch(rng, 100, dims);
            const auto got = simd.predict(xs);
            const auto ref = scalar.predict(xs);
            for (std::size_t i = 0; i < xs.size(); ++i) {
                EXPECT_NEAR(got[i], ref[i], ulpBound(net, xs[i]))
                    << "m=" << m << " dims=" << dims << " i=" << i;
                ++checked;
            }
        }
    }
    EXPECT_GE(checked, 10000u); // the 10k-prediction property floor
}

TEST(BatchPlanProperty, BasisRowsMatchWithinUlpBound)
{
    const SimdKind active = activeSimd();
    math::Rng rng(777);
    const double eps = std::numeric_limits<double>::epsilon();
    for (int rep = 0; rep < 20; ++rep) {
        const std::size_t m = 1 + rng.uniformInt(std::uint64_t{40});
        const std::size_t dims = 1 + rng.uniformInt(std::uint64_t{9});
        const RandomNet net = randomNet(rng, m, dims);
        const BatchPlan simd(net.bases, {}, active);
        const BatchPlan scalar(net.bases, {}, SimdKind::Scalar);
        std::vector<double> hs(m), hr(m);
        for (const auto &x : randomBatch(rng, 25, dims)) {
            simd.basisRow(x, hs.data());
            scalar.basisRow(x, hr.data());
            for (std::size_t j = 0; j < m; ++j) {
                // Per-basis bound: FMA exponent perturbation scaled
                // by the exponent magnitude plus the vector exp's
                // own kExpUlpBound (see rbf_batch.hh).
                const double e = exponentOf(net.bases[j], x);
                const double bound =
                    ((static_cast<double>(dims) + 2.0) * e +
                     kExpUlpBound + 2.0) *
                        eps * std::fabs(hr[j]) +
                    std::numeric_limits<double>::min();
                EXPECT_NEAR(hs[j], hr[j], bound)
                    << "m=" << m << " dims=" << dims << " j=" << j;
            }
        }
    }
}

TEST(BatchPlanProperty, BasisRowNeverStoresPastBasisCount)
{
    // Regression test for an out-of-bounds store in the NEON kernel:
    // padding blocks (jb >= m) were stored into the caller's row,
    // which holds exactly m doubles. Rows here carry a sentinel guard
    // region after m covering the full pad width, so a padding-block
    // store is caught on every kernel even without asan. Constructing
    // a plan with an uncompiled kind dispatches to scalar, so the
    // kind loop exercises whichever kernels this build has (NEON on
    // aarch64, AVX2/AVX-512 on x86).
    constexpr double kSentinel = -1234.5;
    constexpr std::size_t kGuard = 16; // >= pad width of every kernel
    math::Rng rng(616);
    for (SimdKind kind :
         {SimdKind::Scalar, SimdKind::Avx2, SimdKind::Neon,
          SimdKind::Avx512}) {
        // Every tail residue against the 2/4/8-lane block widths.
        for (std::size_t m : {std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{5},
                              std::size_t{7}, std::size_t{9},
                              std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{31}}) {
            const std::size_t dims = 1 + rng.uniformInt(std::uint64_t{5});
            const RandomNet net = randomNet(rng, m, dims);
            const BatchPlan plan(net.bases, {}, kind);
            std::vector<double> row(m + kGuard, kSentinel);
            plan.basisRow(randomBatch(rng, 1, dims)[0], row.data());
            for (std::size_t j = 0; j < m; ++j)
                EXPECT_NE(row[j], kSentinel)
                    << simdKindName(kind) << " m=" << m << " j=" << j;
            for (std::size_t j = m; j < row.size(); ++j)
                EXPECT_EQ(row[j], kSentinel)
                    << simdKindName(kind) << " m=" << m << " j=" << j;
        }
    }
}

TEST(BatchPlanProperty, TinyRadiiUnderflowToExactZeroBothPaths)
{
    // A far-away query with a tiny radius drives the exponent past
    // the underflow threshold: both kernels must flush to exactly 0.
    std::vector<GaussianBasis> bases;
    bases.emplace_back(dspace::UnitPoint{0.0},
                       std::vector<double>{1e-3});
    const BatchPlan simd(bases, {1.0}, activeSimd());
    const BatchPlan scalar(bases, {1.0}, SimdKind::Scalar);
    const dspace::UnitPoint far{1.0};
    EXPECT_EQ(simd.predictOne(far), 0.0);
    EXPECT_EQ(scalar.predictOne(far), 0.0);
}

TEST(BatchPlanProperty, ExactlyOneAtCenterBothPaths)
{
    // exp(0) must be exactly 1.0 in the vector kernel too.
    math::Rng rng(31);
    const RandomNet net = randomNet(rng, 9, 4);
    const BatchPlan simd(net.bases, {}, activeSimd());
    std::vector<double> row(9);
    simd.basisRow(net.bases[4].center(), row.data());
    EXPECT_EQ(row[4], 1.0);
}

// --- network integration ----------------------------------------------

TEST(RbfNetworkPlan, NetworkRoutesThroughCompiledPlan)
{
    math::Rng rng(50);
    const RandomNet rn = randomNet(rng, 12, 3);
    const RbfNetwork net(rn.bases, rn.weights);
    ASSERT_NE(net.plan(), nullptr);
    EXPECT_EQ(net.plan()->kind(), activeSimd());
    for (const auto &x : randomBatch(rng, 10, 3))
        EXPECT_EQ(bitsOf(net.predict(x)),
                  bitsOf(net.plan()->predictOne(x)));
}

TEST(RbfNetworkPlan, CopiesShareThePlan)
{
    math::Rng rng(51);
    const RandomNet rn = randomNet(rng, 4, 2);
    const RbfNetwork a(rn.bases, rn.weights);
    const RbfNetwork b = a; // NOLINT: the share is the point
    EXPECT_EQ(a.plan().get(), b.plan().get());
}

TEST(RbfNetworkPlan, DesignMatrixMatchesPlanRows)
{
    math::Rng rng(52);
    const RandomNet rn = randomNet(rng, 7, 4);
    const auto xs = randomBatch(rng, 20, 4);
    const math::Matrix h = designMatrix(rn.bases, xs);
    const BatchPlan plan(rn.bases, {});
    std::vector<double> row(7);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        plan.basisRow(xs[i], row.data());
        for (std::size_t j = 0; j < 7u; ++j)
            EXPECT_EQ(bitsOf(h(i, j)), bitsOf(row[j]));
    }
}

} // namespace
