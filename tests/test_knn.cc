/**
 * @file
 * Unit tests for the kNN baseline model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/knn_model.hh"
#include "dspace/paper_space.hh"
#include "math/rng.hh"

namespace {

using namespace ppm;
using namespace ppm::core;

dspace::DesignSpace
unitSpace2()
{
    dspace::DesignSpace s;
    s.add(dspace::Parameter("a", 0, 1, dspace::kSampleSizeLevels,
                            dspace::Transform::Linear, false));
    s.add(dspace::Parameter("b", 0, 1, dspace::kSampleSizeLevels,
                            dspace::Transform::Linear, false));
    return s;
}

TEST(Knn, ExactHitReturnsTrainingResponse)
{
    auto space = unitSpace2();
    KnnPerformanceModel m(space, {{0.2, 0.2}, {0.8, 0.8}}, {1.0, 5.0},
                          2);
    EXPECT_DOUBLE_EQ(m.predict({0.2, 0.2}), 1.0);
    EXPECT_DOUBLE_EQ(m.predict({0.8, 0.8}), 5.0);
}

TEST(Knn, InterpolatesBetweenNeighbours)
{
    auto space = unitSpace2();
    KnnPerformanceModel m(space, {{0.0, 0.0}, {1.0, 1.0}}, {0.0, 10.0},
                          2);
    // Equidistant: inverse-distance weights are equal.
    EXPECT_NEAR(m.predict({0.5, 0.5}), 5.0, 1e-9);
    // Closer to the second point: pulled toward 10.
    EXPECT_GT(m.predict({0.8, 0.8}), 7.0);
}

TEST(Knn, KOneIsNearestNeighbour)
{
    auto space = unitSpace2();
    KnnPerformanceModel m(space, {{0.1, 0.1}, {0.9, 0.9}}, {2.0, 8.0},
                          1);
    EXPECT_DOUBLE_EQ(m.predict({0.2, 0.2}), 2.0);
    EXPECT_DOUBLE_EQ(m.predict({0.7, 0.7}), 8.0);
}

TEST(Knn, KClampedToSampleSize)
{
    auto space = unitSpace2();
    KnnPerformanceModel m(space, {{0.5, 0.5}}, {3.0}, 10);
    EXPECT_EQ(m.k(), 1);
    EXPECT_DOUBLE_EQ(m.predict({0.0, 0.0}), 3.0);
}

TEST(Knn, LearnsSmoothFunctionRoughly)
{
    auto space = unitSpace2();
    math::Rng rng(5);
    std::vector<dspace::DesignPoint> pts;
    std::vector<double> ys;
    for (int i = 0; i < 150; ++i) {
        pts.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(2.0 + pts.back()[0] + 0.5 * pts.back()[1]);
    }
    KnnPerformanceModel m(space, pts, ys, 5);
    double worst = 0;
    for (int i = 0; i < 50; ++i) {
        const dspace::DesignPoint q{rng.uniform(), rng.uniform()};
        const double truth = 2.0 + q[0] + 0.5 * q[1];
        worst = std::max(worst, std::fabs(m.predict(q) - truth));
    }
    EXPECT_LT(worst, 0.4);
}

TEST(Knn, DescribeMentionsK)
{
    auto space = unitSpace2();
    KnnPerformanceModel m(space, {{0.5, 0.5}, {0.2, 0.4}}, {1, 2}, 2);
    EXPECT_NE(m.describe().find("knn"), std::string::npos);
    EXPECT_NE(m.describe().find("k=2"), std::string::npos);
}

TEST(Knn, PaperSpaceTransformsApplied)
{
    // With the log transform, 512KB is the unit midpoint of
    // 256..1024, so a query at 512 weights both neighbours equally.
    dspace::DesignSpace space;
    space.add(dspace::Parameter("L2", 256, 1024,
                                dspace::kSampleSizeLevels,
                                dspace::Transform::Log, true));
    KnnPerformanceModel m(space, {{256}, {1024}}, {1.0, 3.0}, 2);
    EXPECT_NEAR(m.predict({512}), 2.0, 1e-9);
}

} // namespace
