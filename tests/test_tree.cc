/**
 * @file
 * Unit tests for regression trees (paper Sec 2.4) and split reporting
 * (Table 5 / Fig 5 machinery).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "dspace/design_space.hh"
#include "math/rng.hh"
#include "tree/regression_tree.hh"
#include "tree/split_report.hh"

namespace {

using namespace ppm;
using namespace ppm::tree;

TEST(RegressionTree, LeafStdIsResponseSpreadOfLeaf)
{
    // p_min large enough that the root is the only node: leafStd is
    // the population standard deviation of all responses.
    const std::vector<dspace::UnitPoint> xs = {
        {0.1, 0.1}, {0.2, 0.9}, {0.8, 0.2}, {0.9, 0.8}};
    const std::vector<double> ys = {1.0, 3.0, 5.0, 7.0};
    RegressionTree root_only(xs, ys, 4);
    ASSERT_EQ(root_only.leafCount(), 1u);
    // mean 4, variance ((−3)²+(−1)²+1²+3²)/4 = 5.
    EXPECT_NEAR(root_only.leafStd({0.5, 0.5}), std::sqrt(5.0), 1e-12);

    // A step response split at x0 = 0.5: each leaf holds two points
    // with spread 1 about its own mean.
    RegressionTree split_tree(xs, ys, 2);
    ASSERT_GE(split_tree.leafCount(), 2u);
    EXPECT_NEAR(split_tree.leafStd({0.0, 0.5}), 1.0, 1e-12);
    EXPECT_NEAR(split_tree.leafStd({1.0, 0.5}), 1.0, 1e-12);

    // Singleton leaves have zero spread.
    RegressionTree singleton(xs, ys, 1);
    EXPECT_DOUBLE_EQ(singleton.leafStd({0.05, 0.05}), 0.0);

    // nodes() exports the same statistic.
    for (const auto &info : root_only.nodes())
        if (info.is_leaf)
            EXPECT_NEAR(info.std_response, std::sqrt(5.0), 1e-12);
}

TEST(RegressionTree, SinglePointIsLeafOnlyTree)
{
    RegressionTree t({{0.5, 0.5}}, {3.0}, 1);
    EXPECT_EQ(t.nodeCount(), 1u);
    EXPECT_EQ(t.leafCount(), 1u);
    EXPECT_EQ(t.depth(), 0);
    EXPECT_DOUBLE_EQ(t.predict({0.1, 0.9}), 3.0);
    EXPECT_TRUE(t.splits().empty());
}

TEST(RegressionTree, StepFunctionSplitsAtBoundary)
{
    // y = 0 for x < 0.5, y = 1 for x > 0.5: one split at ~0.5.
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    for (int i = 0; i < 10; ++i) {
        const double x = (i + 0.5) / 10.0;
        xs.push_back({x});
        ys.push_back(x < 0.5 ? 0.0 : 1.0);
    }
    RegressionTree t(xs, ys, 5);
    ASSERT_FALSE(t.splits().empty());
    const SplitRecord &first = t.splits().front();
    EXPECT_EQ(first.parameter, 0u);
    EXPECT_NEAR(first.value, 0.5, 1e-9);
    EXPECT_EQ(first.depth, 1);
    EXPECT_DOUBLE_EQ(t.predict({0.2}), 0.0);
    EXPECT_DOUBLE_EQ(t.predict({0.8}), 1.0);
}

TEST(RegressionTree, PicksTheInformativeDimension)
{
    // y depends only on dimension 1; the first split must use it.
    math::Rng rng(1);
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    for (int i = 0; i < 60; ++i) {
        const double a = rng.uniform(), b = rng.uniform();
        xs.push_back({a, b});
        ys.push_back(b > 0.4 ? 5.0 : 1.0);
    }
    RegressionTree t(xs, ys, 10);
    ASSERT_FALSE(t.splits().empty());
    EXPECT_EQ(t.splits().front().parameter, 1u);
    EXPECT_NEAR(t.splits().front().value, 0.4, 0.15);
}

TEST(RegressionTree, PminOneMakesSingletonLeaves)
{
    math::Rng rng(2);
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    for (int i = 0; i < 32; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(rng.uniform());
    }
    RegressionTree t(xs, ys, 1);
    // With p_min = 1 and distinct points, leaves = points.
    EXPECT_EQ(t.leafCount(), xs.size());
    EXPECT_EQ(t.nodeCount(), 2 * xs.size() - 1);
    // Prediction at a training point returns its response.
    for (std::size_t i = 0; i < xs.size(); ++i)
        EXPECT_DOUBLE_EQ(t.predict(xs[i]), ys[i]);
}

TEST(RegressionTree, PminLimitsLeafSizes)
{
    math::Rng rng(3);
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    for (int i = 0; i < 64; ++i) {
        xs.push_back({rng.uniform()});
        ys.push_back(rng.uniform());
    }
    const int p_min = 5;
    RegressionTree t(xs, ys, p_min);
    for (const auto &node : t.nodes()) {
        if (node.is_leaf) {
            EXPECT_LE(node.count, static_cast<std::size_t>(p_min));
        }
    }
}

TEST(RegressionTree, IdenticalPointsCannotSplit)
{
    std::vector<dspace::UnitPoint> xs(8, {0.3, 0.7});
    std::vector<double> ys{1, 2, 3, 4, 5, 6, 7, 8};
    RegressionTree t(xs, ys, 1);
    EXPECT_EQ(t.nodeCount(), 1u);
    EXPECT_DOUBLE_EQ(t.predict({0.3, 0.7}), 4.5);
}

TEST(RegressionTree, RootNodeCoversUnitCube)
{
    math::Rng rng(4);
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    for (int i = 0; i < 20; ++i) {
        xs.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
        ys.push_back(xs.back()[0]);
    }
    RegressionTree t(xs, ys, 4);
    const auto nodes = t.nodes();
    ASSERT_FALSE(nodes.empty());
    const NodeInfo &root = nodes.front();
    EXPECT_EQ(root.depth, 0);
    EXPECT_EQ(root.count, xs.size());
    for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_DOUBLE_EQ(root.center[k], 0.5);
        EXPECT_DOUBLE_EQ(root.size[k], 1.0);
    }
}

TEST(RegressionTree, ChildLinksConsistent)
{
    math::Rng rng(5);
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    for (int i = 0; i < 40; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(xs.back()[0] * 3 + xs.back()[1]);
    }
    RegressionTree t(xs, ys, 2);
    const auto nodes = t.nodes();
    std::size_t internal = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto &node = nodes[i];
        if (node.is_leaf) {
            EXPECT_EQ(node.left_child, NodeInfo::npos);
            EXPECT_EQ(node.right_child, NodeInfo::npos);
            continue;
        }
        ++internal;
        ASSERT_LT(node.left_child, nodes.size());
        ASSERT_LT(node.right_child, nodes.size());
        const auto &l = nodes[node.left_child];
        const auto &r = nodes[node.right_child];
        EXPECT_EQ(l.depth, node.depth + 1);
        EXPECT_EQ(r.depth, node.depth + 1);
        // Children partition the parent's points.
        EXPECT_EQ(l.count + r.count, node.count);
        // Children's regions tile the parent's region volume.
        double parent_vol = 1, child_vol = 0, lv = 1, rv = 1;
        for (std::size_t k = 0; k < 2; ++k)
            parent_vol *= node.size[k];
        for (std::size_t k = 0; k < 2; ++k) {
            lv *= l.size[k];
            rv *= r.size[k];
        }
        child_vol = lv + rv;
        EXPECT_NEAR(parent_vol, child_vol, 1e-9);
    }
    EXPECT_EQ(internal, t.splits().size());
    EXPECT_EQ(nodes.size(), t.nodeCount());
}

TEST(RegressionTree, SplitsReduceTrainingError)
{
    // The tree's leaf-mean prediction must fit training data at least
    // as well as the global mean.
    math::Rng rng(6);
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    double mean = 0;
    for (int i = 0; i < 100; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(std::sin(6 * xs.back()[0]) + xs.back()[1]);
        mean += ys.back();
    }
    mean /= 100;
    double sse_mean = 0, sse_tree = 0;
    RegressionTree t(xs, ys, 4);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sse_mean += (ys[i] - mean) * (ys[i] - mean);
        const double p = t.predict(xs[i]);
        sse_tree += (ys[i] - p) * (ys[i] - p);
    }
    EXPECT_LT(sse_tree, sse_mean * 0.5);
}

TEST(RegressionTree, ErrorReductionsPositive)
{
    math::Rng rng(7);
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    for (int i = 0; i < 50; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(xs.back()[0] > 0.5 ? 2.0 + rng.uniform()
                                        : rng.uniform());
    }
    RegressionTree t(xs, ys, 2);
    for (const auto &s : t.splits())
        EXPECT_GE(s.error_reduction, -1e-9);
}

// --- split reporting --------------------------------------------------

dspace::DesignSpace
twoParamSpace()
{
    dspace::DesignSpace s;
    s.add(dspace::Parameter("lat", 1, 4, 4,
                            dspace::Transform::Linear, true));
    s.add(dspace::Parameter("size", 8, 64, 4,
                            dspace::Transform::Log, true));
    return s;
}

TEST(SplitReport, RawValuesUseParameterTransforms)
{
    auto space = twoParamSpace();
    // Response depends on parameter 1 (log-scaled size).
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    math::Rng rng(8);
    for (int i = 0; i < 40; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(xs.back()[1] > 0.5 ? 1.0 : 4.0);
    }
    RegressionTree t(xs, ys, 10);
    auto splits = significantSplits(t, space, 3);
    ASSERT_FALSE(splits.empty());
    EXPECT_EQ(splits.front().parameter, "size");
    // Unit 0.5 on a log 8..64 range is ~22.6 raw.
    EXPECT_NEAR(splits.front().raw_value, std::sqrt(8.0 * 64.0), 8.0);
}

TEST(SplitReport, RankedByErrorReduction)
{
    auto space = twoParamSpace();
    math::Rng rng(9);
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    for (int i = 0; i < 80; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        // Parameter 0 has the dominant effect.
        ys.push_back(10.0 * (xs.back()[0] > 0.5) +
                     1.0 * (xs.back()[1] > 0.5) +
                     0.05 * rng.uniform());
    }
    RegressionTree t(xs, ys, 4);
    auto splits = significantSplits(t, space, 8);
    ASSERT_GE(splits.size(), 2u);
    EXPECT_EQ(splits.front().parameter, "lat");
    for (std::size_t i = 1; i < splits.size(); ++i)
        EXPECT_GE(splits[i - 1].error_reduction,
                  splits[i].error_reduction);
}

TEST(SplitReport, AllSplitsMatchesTree)
{
    auto space = twoParamSpace();
    math::Rng rng(10);
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    for (int i = 0; i < 30; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(rng.uniform());
    }
    RegressionTree t(xs, ys, 2);
    EXPECT_EQ(allSplits(t, space).size(), t.splits().size());
}

TEST(SplitReport, CountPerParameterSums)
{
    auto space = twoParamSpace();
    math::Rng rng(11);
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    for (int i = 0; i < 60; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(xs.back()[0] + 2 * xs.back()[1]);
    }
    RegressionTree t(xs, ys, 3);
    auto counts = splitCountPerParameter(t, space);
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[0] + counts[1], t.splits().size());
}

TEST(SplitReport, TopNTruncates)
{
    auto space = twoParamSpace();
    math::Rng rng(12);
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
    for (int i = 0; i < 64; ++i) {
        xs.push_back({rng.uniform(), rng.uniform()});
        ys.push_back(rng.uniform());
    }
    RegressionTree t(xs, ys, 1);
    EXPECT_EQ(significantSplits(t, space, 5).size(), 5u);
}

} // namespace
