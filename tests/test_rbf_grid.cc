/**
 * @file
 * The shared grid search of rbf::fitGrid() against its plain
 * statement.
 *
 * fitGrid() grows only the tree of the smallest p_min, cuts every
 * other p_min's node list from it (pruneNodes) and builds each alpha's
 * candidate Gram once over that finest list for all of the alpha's
 * cells. Pinned here: a pruned list equals the list of a tree grown at
 * its p_min, field for field; and every cell equals buildRbfFromTree()
 * on its own tree, bit for bit, on the Table 3 grid, the default grid
 * and the online-refit shape, at 1 and 4 threads.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "math/rng.hh"
#include "rbf/rbf_rt.hh"
#include "rbf/trainer.hh"
#include "train/online_trainer.hh"
#include "tree/regression_tree.hh"
#include "util/thread_pool.hh"

namespace {

using namespace ppm;

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (bits(a[i]) != bits(b[i]))
            return false;
    return true;
}

struct Sample
{
    std::vector<dspace::UnitPoint> xs;
    std::vector<double> ys;
};

/**
 * Random sample: 2 to 160 points in 1 to 9 dimensions. Half the
 * samples repeat earlier points (so some nodes of more than p_min
 * points cannot be split), and a third put coordinates on a coarse
 * 5-level grid (ties along a dimension).
 */
Sample
randomSample(math::Rng &rng)
{
    Sample s;
    const std::size_t p = 2 + rng.uniformInt(std::uint64_t{159});
    const std::size_t dims = 1 + rng.uniformInt(std::uint64_t{9});
    const double dup_frac = rng.uniform() < 0.5 ? 0.0 : 0.4;
    const bool coarse = rng.uniform() < 0.33;
    for (std::size_t i = 0; i < p; ++i) {
        dspace::UnitPoint x(dims);
        if (i > 0 && rng.uniform() < dup_frac) {
            x = s.xs[rng.uniformInt(std::uint64_t{i})];
        } else {
            for (auto &v : x)
                v = coarse ? 0.25 * static_cast<double>(
                                        rng.uniformInt(std::uint64_t{5}))
                           : rng.uniform();
        }
        s.ys.push_back(1.0 + x[0] + 3.0 * x[dims - 1] * x[0] +
                       0.1 * rng.gaussian());
        s.xs.push_back(std::move(x));
    }
    return s;
}

/** Every field of two node lists, doubles compared by bits. */
void
expectSameNodes(const std::vector<tree::NodeInfo> &got,
                const std::vector<tree::NodeInfo> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
        SCOPED_TRACE(::testing::Message() << "node " << k);
        EXPECT_TRUE(sameBits(got[k].center, want[k].center));
        EXPECT_TRUE(sameBits(got[k].size, want[k].size));
        EXPECT_EQ(got[k].depth, want[k].depth);
        EXPECT_EQ(got[k].count, want[k].count);
        EXPECT_EQ(bits(got[k].mean_response), bits(want[k].mean_response));
        EXPECT_EQ(bits(got[k].std_response), bits(want[k].std_response));
        EXPECT_EQ(got[k].is_leaf, want[k].is_leaf);
        EXPECT_EQ(got[k].left_child, want[k].left_child);
        EXPECT_EQ(got[k].right_child, want[k].right_child);
    }
}

TEST(RbfGrid, PrunedNodesEqualTheTreeGrownAtThatPmin)
{
    math::Rng rng(28);
    std::size_t unsplittable = 0;
    std::size_t pruned_away = 0;
    for (int k = 0; k < 240; ++k) {
        SCOPED_TRACE(::testing::Message() << "sample " << k);
        const Sample s = randomSample(rng);
        const int p = 1 + static_cast<int>(rng.uniformInt(std::uint64_t{6}));
        const std::vector<int> grids[] = {{1, 2}, {1, 2, 4}, {p, 2 * p}};
        for (const std::vector<int> &grid : grids) {
            const auto finest =
                tree::RegressionTree(s.xs, s.ys, grid.front()).nodes();
            for (int p_min : grid) {
                const rbf::PrunedNodes cut = rbf::pruneNodes(finest, p_min);
                const auto want =
                    tree::RegressionTree(s.xs, s.ys, p_min).nodes();
                expectSameNodes(cut.nodes, want);
                ASSERT_EQ(cut.fine_index.size(), cut.nodes.size());
                for (std::size_t i = 0; i < cut.nodes.size(); ++i) {
                    if (i > 0) {
                        EXPECT_LT(cut.fine_index[i - 1], cut.fine_index[i]);
                    }
                    EXPECT_TRUE(sameBits(finest[cut.fine_index[i]].center,
                                         cut.nodes[i].center));
                }
                pruned_away += finest.size() - cut.nodes.size();
                for (const tree::NodeInfo &node : want)
                    unsplittable += node.is_leaf &&
                                    node.count >
                                        static_cast<std::size_t>(p_min);
                if (HasFailure())
                    return;
            }
        }
    }
    // The samples reached both kinds of leaf: cut by the stop rule and
    // left whole because their points coincide.
    EXPECT_GT(pruned_away, 0u);
    EXPECT_GT(unsplittable, 0u);
}

void
expectSameFit(const rbf::RbfRtResult &got, const rbf::RbfRtResult &want)
{
    EXPECT_EQ(bits(got.criterion_value), bits(want.criterion_value));
    EXPECT_EQ(bits(got.train_sse), bits(want.train_sse));
    EXPECT_EQ(got.num_candidates, want.num_candidates);
    const auto &gb = got.network.bases();
    const auto &wb = want.network.bases();
    ASSERT_EQ(gb.size(), wb.size());
    for (std::size_t j = 0; j < gb.size(); ++j) {
        EXPECT_TRUE(sameBits(gb[j].center(), wb[j].center()));
        EXPECT_TRUE(sameBits(gb[j].radius(), wb[j].radius()));
    }
    EXPECT_TRUE(sameBits(got.network.weights(), want.network.weights()));
}

/** fitGrid() against buildRbfFromTree() on each p_min's own tree. */
void
expectGridMatchesOwnTrees(const Sample &s,
                          const rbf::TrainerOptions &options)
{
    const std::vector<rbf::GridFit> fits = rbf::fitGrid(s.xs, s.ys, options);
    ASSERT_EQ(fits.size(),
              options.p_min_grid.size() * options.alpha_grid.size());
    std::size_t k = 0;
    // trainRbfModel's reduction: the first strictly lowest criterion,
    // else (all +inf) the first cell's root-only model.
    const rbf::GridFit *best = &fits.front();
    double best_value = std::numeric_limits<double>::infinity();
    for (int p_min : options.p_min_grid) {
        const tree::RegressionTree own(s.xs, s.ys, p_min);
        for (double alpha : options.alpha_grid) {
            SCOPED_TRACE(::testing::Message()
                         << "p_min " << p_min << " alpha " << alpha);
            const rbf::GridFit &cell = fits[k++];
            EXPECT_EQ(cell.p_min, p_min);
            EXPECT_EQ(bits(cell.alpha), bits(alpha));
            rbf::RbfRtOptions rt;
            rt.alpha = alpha;
            rt.criterion = options.criterion;
            rt.selection = options.selection;
            rt.max_centers = options.max_centers;
            expectSameFit(cell.fit,
                          rbf::buildRbfFromTree(own, s.xs, s.ys, rt));
            if (cell.fit.criterion_value < best_value) {
                best_value = cell.fit.criterion_value;
                best = &cell;
            }
        }
    }
    const rbf::TrainedRbf trained =
        rbf::trainRbfModel(s.xs, s.ys, options);
    EXPECT_EQ(trained.p_min, best->p_min);
    EXPECT_EQ(bits(trained.alpha), bits(best->alpha));
    EXPECT_EQ(bits(trained.criterion_value),
              bits(best->fit.criterion_value));
    EXPECT_TRUE(sameBits(trained.network.weights(),
                         best->fit.network.weights()));
}

/** Smooth 9-D response with noise, as the e2e and bench samples. */
Sample
smoothSample(std::size_t n, std::uint64_t seed)
{
    math::Rng rng(seed);
    Sample s;
    for (std::size_t i = 0; i < n; ++i) {
        dspace::UnitPoint x(9);
        for (auto &v : x)
            v = rng.uniform();
        s.ys.push_back(1.0 + x[0] + 2.0 * x[1] * x[4] +
                       1.0 / (0.2 + x[5]) + 0.05 * rng.gaussian());
        s.xs.push_back(std::move(x));
    }
    return s;
}

TEST(RbfGrid, EveryCellMatchesBuildOnItsOwnTree)
{
    rbf::TrainerOptions table3;
    table3.p_min_grid = {1, 2};
    table3.alpha_grid = {4, 6, 8, 10, 12};
    const rbf::TrainerOptions defaults;
    // The online refit grows p_min with the archive: {p, 2p}, a
    // coarser alpha grid and a center cap (p = 2 at 600 points).
    const rbf::TrainerOptions refit = train::onlineRefitOptions(600);
    ASSERT_EQ(refit.p_min_grid, (std::vector<int>{2, 4}));
    // A grid whose finest p_min is not first.
    rbf::TrainerOptions unordered;
    unordered.p_min_grid = {4, 1, 2};
    unordered.alpha_grid = {3, 9};
    unordered.criterion = rbf::Criterion::GCV;

    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "threads " << threads);
        util::setGlobalThreads(threads);
        math::Rng rng(threads);
        for (int k = 0; k < 3; ++k) {
            const Sample s = randomSample(rng);
            expectGridMatchesOwnTrees(s, table3);
            expectGridMatchesOwnTrees(s, defaults);
            expectGridMatchesOwnTrees(s, unordered);
        }
        const Sample s90 = smoothSample(90, 90);
        expectGridMatchesOwnTrees(s90, table3);
        expectGridMatchesOwnTrees(s90, defaults);
        expectGridMatchesOwnTrees(smoothSample(600, 600), refit);
    }
    util::setGlobalThreads(0);
}

} // namespace
