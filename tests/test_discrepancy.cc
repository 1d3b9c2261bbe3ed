/**
 * @file
 * Unit tests for the L2 discrepancy measures, including analytic
 * values and the orderings the paper relies on (LHS beats random;
 * discrepancy falls with sample size — Fig 2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "dspace/design_space.hh"
#include "math/rng.hh"
#include "sampling/discrepancy.hh"
#include "sampling/latin_hypercube.hh"
#include "sampling/sample_gen.hh"

namespace {

using namespace ppm;
using namespace ppm::sampling;

std::vector<dspace::UnitPoint>
randomUnitPoints(std::size_t n, std::size_t d, std::uint64_t seed)
{
    math::Rng rng(seed);
    std::vector<dspace::UnitPoint> pts(n, dspace::UnitPoint(d));
    for (auto &p : pts)
        for (auto &v : p)
            v = rng.uniform();
    return pts;
}

dspace::DesignSpace
unitSpace(std::size_t dims)
{
    dspace::DesignSpace s;
    for (std::size_t i = 0; i < dims; ++i)
        s.add(dspace::Parameter("p" + std::to_string(i), 0, 1,
                                dspace::kSampleSizeLevels,
                                dspace::Transform::Linear, false));
    return s;
}

TEST(StarDiscrepancy, SinglePointAnalytic1D)
{
    // Warnock in 1-D for one point x:
    // D*^2 = 1/3 - (1 - x^2) + (1 - x).
    for (double x : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        const double expected =
            std::sqrt(1.0 / 3.0 - (1.0 - x * x) + (1.0 - x));
        EXPECT_NEAR(starL2Discrepancy({{x}}), expected, 1e-12) << x;
    }
}

TEST(StarDiscrepancy, MidpointIsBestSinglePoint1D)
{
    // For one point in 1-D, x = 0.5 minimizes the star discrepancy.
    const double mid = starL2Discrepancy({{0.5}});
    for (double x : {0.1, 0.3, 0.7, 0.9})
        EXPECT_LT(mid, starL2Discrepancy({{x}}));
}

TEST(CenteredDiscrepancy, SinglePointAnalytic1D)
{
    // CD^2 = 13/12 - 2(1 + z/2 - z^2/2) + (1 + z) with z = |x - 1/2|.
    for (double x : {0.0, 0.25, 0.5, 1.0}) {
        const double z = std::fabs(x - 0.5);
        const double expected = std::sqrt(
            13.0 / 12.0 - 2.0 * (1.0 + 0.5 * z - 0.5 * z * z) +
            (1.0 + z));
        EXPECT_NEAR(centeredL2Discrepancy({{x}}), expected, 1e-12) << x;
    }
}

/**
 * The centred L2 discrepancy as computed before its pair loop ran
 * lane-parallel: the same expression per pair and dimension, the
 * product over k ascending, the pair sum in (i, j) order.
 */
double
referenceCenteredL2(const std::vector<dspace::UnitPoint> &unit)
{
    const std::size_t p = unit.size();
    const std::size_t d = unit.front().size();
    const double pd = static_cast<double>(p);

    double sum1 = 0.0;
    for (const auto &x : unit) {
        double prod = 1.0;
        for (double v : x) {
            const double z = std::fabs(v - 0.5);
            prod *= 1.0 + 0.5 * z - 0.5 * z * z;
        }
        sum1 += prod;
    }

    double sum2 = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
            double prod = 1.0;
            for (std::size_t k = 0; k < d; ++k) {
                const double zi = std::fabs(unit[i][k] - 0.5);
                const double zj = std::fabs(unit[j][k] - 0.5);
                const double dij = std::fabs(unit[i][k] - unit[j][k]);
                prod *= 1.0 + 0.5 * zi + 0.5 * zj - 0.5 * dij;
            }
            sum2 += prod;
        }
    }

    const double dd = static_cast<double>(d);
    const double sq = std::pow(13.0 / 12.0, dd)
        - 2.0 / pd * sum1
        + sum2 / (pd * pd);
    return std::sqrt(std::max(0.0, sq));
}

TEST(CenteredDiscrepancy, MatchesThePairLoopBitForBit)
{
    // Ragged sample sizes around the 8-lane blocks; coordinates that
    // are uniform, on LHS-like strata centres, at the cube's faces or
    // repeated from an earlier point.
    math::Rng rng(1209);
    const std::size_t dims[] = {1, 9, 12};
    for (int input = 0; input < 1000; ++input) {
        const std::size_t p = 1 + rng.uniformInt(std::uint64_t{130});
        const std::size_t d = dims[rng.uniformInt(std::uint64_t{3})];
        SCOPED_TRACE(::testing::Message()
                     << "input " << input << " p " << p << " d " << d);
        std::vector<dspace::UnitPoint> unit(p, dspace::UnitPoint(d));
        for (std::size_t i = 0; i < p; ++i) {
            if (i > 0 && rng.uniform() < 0.1) {
                unit[i] = unit[rng.uniformInt(std::uint64_t{i})];
                continue;
            }
            for (double &v : unit[i]) {
                const double u = rng.uniform();
                if (u < 0.1)
                    v = u < 0.05 ? 0.0 : 1.0;
                else if (u < 0.5)
                    v = (static_cast<double>(
                             rng.uniformInt(std::uint64_t{p})) + 0.5) /
                        static_cast<double>(p);
                else
                    v = rng.uniform();
            }
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(centeredL2Discrepancy(unit)),
                  std::bit_cast<std::uint64_t>(referenceCenteredL2(unit)));
        if (HasFailure())
            return;
    }
}

TEST(CenteredDiscrepancy, ReflectionInvariance)
{
    // The centered discrepancy is invariant under x -> 1 - x.
    auto pts = randomUnitPoints(20, 3, 5);
    auto reflected = pts;
    for (auto &p : reflected)
        for (auto &v : p)
            v = 1.0 - v;
    EXPECT_NEAR(centeredL2Discrepancy(pts),
                centeredL2Discrepancy(reflected), 1e-10);
}

TEST(CenteredDiscrepancy, PermutationInvariance)
{
    auto pts = randomUnitPoints(15, 2, 6);
    auto shuffled = pts;
    std::swap(shuffled[0], shuffled[7]);
    std::swap(shuffled[3], shuffled[12]);
    EXPECT_NEAR(centeredL2Discrepancy(pts),
                centeredL2Discrepancy(shuffled), 1e-12);
}

TEST(CenteredDiscrepancy, UniformGridBeatsClusteredPoints)
{
    // 1-D: evenly spread points vs all points clustered at 0.1.
    std::vector<dspace::UnitPoint> grid, cluster;
    const int n = 10;
    for (int i = 0; i < n; ++i) {
        grid.push_back({(i + 0.5) / n});
        cluster.push_back({0.1 + 0.001 * i});
    }
    EXPECT_LT(centeredL2Discrepancy(grid),
              centeredL2Discrepancy(cluster));
    EXPECT_LT(starL2Discrepancy(grid), starL2Discrepancy(cluster));
}

TEST(CenteredDiscrepancy, LhsBeatsRandomOnAverage)
{
    // The motivation for LHS (paper Sec 2.2): better space filling
    // than simple random sampling. Compare averages over several
    // draws in the paper's 9-dimensional setting.
    auto space = unitSpace(9);
    math::Rng rng(7);
    double lhs_total = 0, rnd_total = 0;
    const int reps = 10;
    for (int r = 0; r < reps; ++r) {
        auto lhs = latinHypercubeSample(space, 40, rng);
        lhs_total += centeredL2Discrepancy(toUnitSample(space, lhs));
        auto rnd = randomUnitPoints(40, 9, 1000 + r);
        rnd_total += centeredL2Discrepancy(rnd);
    }
    EXPECT_LT(lhs_total / reps, rnd_total / reps);
}

TEST(CenteredDiscrepancy, DecreasesWithSampleSize)
{
    // The Fig 2 trend: best-of-N discrepancy falls as samples grow.
    auto space = unitSpace(9);
    math::Rng rng(8);
    double prev = 1e9;
    for (int size : {10, 30, 90, 270}) {
        auto best = bestLatinHypercube(space, size, 10, rng);
        EXPECT_LT(best.discrepancy, prev) << "size " << size;
        prev = best.discrepancy;
    }
}

TEST(Discrepancy, BothMetricsPositive)
{
    auto pts = randomUnitPoints(25, 4, 9);
    EXPECT_GT(starL2Discrepancy(pts), 0.0);
    EXPECT_GT(centeredL2Discrepancy(pts), 0.0);
}

TEST(Discrepancy, DimensionalityGrowsDiscrepancy)
{
    // The same point count fills higher-dimensional space worse.
    const double d2 = centeredL2Discrepancy(randomUnitPoints(30, 2, 10));
    const double d9 = centeredL2Discrepancy(randomUnitPoints(30, 9, 10));
    EXPECT_LT(d2, d9);
}

} // namespace
